"""Closed-form index expressions for the four named families, and a
verifier that compares every recorded variant against direct computation.

The published path proposition is internally inconsistent: its statement
line, its proof's final arithmetic and the values implied by the degree
definitions are three different things. The star proposition's first-index
claim counts only the central vertex. Each recorded claim is therefore
tagged with its source (statement, proof, or corrected form) and checked
independently; mismatches are findings, not errors.

Corrected forms registered here, derived by brute-force evaluation over
n = 3..60 and then confirmed by the endpoint / next-to-end / interior
vertex classification:

  path, n >= 5:  R1 = 64n - 174,  R2 = 64n - 200,  R3 = 16n - 36
  path, n = 3:   R1 = 41,  R2 = 24,  R3 = 14   (only two vertex classes)
  path, n = 4:   R1 = 82,  R2 = 65,  R3 = 28   (no interior-class vertex)
  star, n >= 3:  R1 = n^2 + 4(n-1)^3           (center n^2 plus pendants)
"""

import io
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction

from .errors import OrderBelowValidityError
from .graph import Family, generate_family
from .indices import full_report

# Every recorded claim is stated for n >= 3.
MIN_CLAIM_ORDER = 3


class Source(Enum):
    PAPER_STATEMENT = "statement"
    PAPER_PROOF = "proof"
    CORRECTED = "corrected"


class RIndex(Enum):
    R1 = "r1"
    R2 = "r2"
    R3 = "r3"


class ClosedFormVariant(namedtuple(
        "ClosedFormVariant", "family index source expression")):
    """One recorded closed-form claim for (family, index): a Family, an
    RIndex, a Source and a callable n -> Fraction."""

    __slots__ = ()

    def evaluate(self, n):
        if n < MIN_CLAIM_ORDER:
            raise OrderBelowValidityError(
                f"{self.family.value}/{self.index.value}/{self.source.value} "
                f"claimed only for n >= {MIN_CLAIM_ORDER}, got {n}"
            )
        return Fraction(self.expression(n))


class DiscrepancyRow(namedtuple(
        "DiscrepancyRow", "family index n source claimed computed")):
    """One claim at one order: the claimed Fraction and the computed int."""

    __slots__ = ()

    @property
    def match(self):
        return self.claimed == self.computed


class DiscrepancyReport(namedtuple("DiscrepancyReport", "rows")):
    """A tuple of DiscrepancyRows."""

    __slots__ = ()

    def mismatches(self):
        return [row for row in self.rows if not row.match]

    def corrected_all_match(self):
        return all(
            row.match for row in self.rows if row.source is Source.CORRECTED
        )


VARIANTS = [
    # Complete graphs: statement and proof agree; both correct.
    ClosedFormVariant(
        Family.COMPLETE, RIndex.R1, Source.PAPER_STATEMENT,
        lambda n: n * ((n - 1) ** 2 * ((n - 1) ** (n - 3) + 1)) ** 2,
    ),
    ClosedFormVariant(
        Family.COMPLETE, RIndex.R2, Source.PAPER_STATEMENT,
        lambda n: Fraction(n, 2) * (n - 1) ** 5 * ((n - 1) ** (n - 3) + 1) ** 2,
    ),
    ClosedFormVariant(
        Family.COMPLETE, RIndex.R3, Source.PAPER_STATEMENT,
        lambda n: n * (n - 1) ** 3 * ((n - 1) ** (n - 3) + 1),
    ),
    # Cycles: statement and proof agree; both correct.
    ClosedFormVariant(Family.CYCLE, RIndex.R1, Source.PAPER_STATEMENT,
                      lambda n: 64 * n),
    ClosedFormVariant(Family.CYCLE, RIndex.R2, Source.PAPER_STATEMENT,
                      lambda n: 64 * n),
    ClosedFormVariant(Family.CYCLE, RIndex.R3, Source.PAPER_STATEMENT,
                      lambda n: 16 * n),
    # Paths: statement and proof disagree with each other and with the
    # definitions; the corrected forms are registered alongside both.
    ClosedFormVariant(Family.PATH, RIndex.R1, Source.PAPER_STATEMENT,
                      lambda n: n + Fraction(5, 2)),
    ClosedFormVariant(Family.PATH, RIndex.R2, Source.PAPER_STATEMENT,
                      lambda n: n + 1),
    ClosedFormVariant(Family.PATH, RIndex.R3, Source.PAPER_STATEMENT,
                      lambda n: 2 * n - Fraction(10, 3)),
    ClosedFormVariant(Family.PATH, RIndex.R1, Source.PAPER_PROOF,
                      lambda n: 64 * n - 78),
    ClosedFormVariant(Family.PATH, RIndex.R2, Source.PAPER_PROOF,
                      lambda n: 64 * n - 112),
    ClosedFormVariant(Family.PATH, RIndex.R3, Source.PAPER_PROOF,
                      lambda n: 16 * n - 22),
    ClosedFormVariant(Family.PATH, RIndex.R1, Source.CORRECTED,
                      lambda n: {3: 41, 4: 82}.get(n, 64 * n - 174)),
    ClosedFormVariant(Family.PATH, RIndex.R2, Source.CORRECTED,
                      lambda n: {3: 24, 4: 65}.get(n, 64 * n - 200)),
    ClosedFormVariant(Family.PATH, RIndex.R3, Source.CORRECTED,
                      lambda n: {3: 14, 4: 28}.get(n, 16 * n - 36)),
    # Stars: the second and third index claims are correct; the first
    # counts only the central vertex, so a corrected form is added.
    ClosedFormVariant(Family.STAR, RIndex.R1, Source.PAPER_STATEMENT,
                      lambda n: n ** 2),
    ClosedFormVariant(Family.STAR, RIndex.R2, Source.PAPER_STATEMENT,
                      lambda n: 2 * n * (n - 1) ** 2),
    ClosedFormVariant(Family.STAR, RIndex.R3, Source.PAPER_STATEMENT,
                      lambda n: (n - 1) * (3 * n - 2)),
    ClosedFormVariant(Family.STAR, RIndex.R1, Source.CORRECTED,
                      lambda n: n ** 2 + 4 * (n - 1) ** 3),
]


def variants_for(family):
    family = Family(family)
    return [v for v in VARIANTS if v.family is family]


def closed_form(variant, n):
    """Exact rational value of one closed-form claim at order n."""
    return variant.evaluate(n)


def verify_family(family, n_range):
    """Compare every recorded claim for a family against direct computation.

    n_range is an iterable of orders. The graph of each order is built
    once and its full_report, whose R indices are the only values a claim
    reads, is shared by every claim at that order; orders below
    MIN_CLAIM_ORDER are skipped. Rows are sorted by (index, n, source).
    """
    family = Family(family)
    variants = variants_for(family)
    rows = []
    for n in sorted(set(n_range)):
        if n < MIN_CLAIM_ORDER:
            continue
        report = full_report(generate_family(family, n))
        for variant in variants:
            rows.append(DiscrepancyRow(
                family=family,
                index=variant.index,
                n=n,
                source=variant.source,
                claimed=variant.evaluate(n),
                computed=getattr(report, variant.index.value),
            ))
    rank = {source: i for i, source in enumerate(Source)}
    rows.sort(key=lambda r: (r.index.value, r.n, rank[r.source]))
    return DiscrepancyReport(rows=tuple(rows))


VERIFY_CSV_HEADER = "family,index,n,source,claimed,computed,verdict"


def report_to_csv(report):
    """Render a DiscrepancyReport as CSV text."""
    out = io.StringIO()
    out.write(VERIFY_CSV_HEADER + "\n")
    for row in report.rows:
        verdict = "Match" if row.match else "Mismatch"
        out.write(
            f"{row.family.value},{row.index.value},{row.n},"
            f"{row.source.value},{row.claimed},{row.computed},{verdict}\n"
        )
    return out.getvalue()


def report_summary(report):
    """Per-source match/mismatch counts as a small text table."""
    counts = Counter((row.family.value, row.source.value, row.match)
                     for row in report.rows)
    lines = [f"{'family':<10} {'source':<10} {'match':>7} {'mismatch':>9}"]
    for family, source in sorted({key[:2] for key in counts}):
        lines.append(f"{family:<10} {source:<10} "
                     f"{counts[family, source, True]:>7} "
                     f"{counts[family, source, False]:>9}")
    return "\n".join(lines) + "\n"
