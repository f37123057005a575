"""Binomial-expansion checks for filtrations of a sum of ideals in
disjoint variables, and the min-formula verifier for local and global
v-numbers.

The two sides of every comparison are computed by independent code
paths: the "direct" side works entirely in the joined ring S, while the
"formula" side only ever touches filtrations of the summands in their
own rings.  They meet only in the final equality checks.
"""

from dataclasses import dataclass

from .decomposition import associated_primes
from .errors import ImproperIdealError, VidealError
from .filtrations import FiltrationKind, filtration_member
from .ideals import MonomialIdeal, PrimeSupport, from_exps
from .rings import Monomial, Ring, canonical_sort, join_rings
from .vnumbers import local_v, v_number


def join_ideals(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """The sum ideal IS + JS inside the joined ring S, whose variables are
    I's followed by J's."""
    pad_i, pad_j = (0,) * i.ring.nvars, (0,) * j.ring.nvars
    exps = [u + pad_j for u in i.exps()] + [pad_i + v for v in j.exps()]
    return from_exps(join_rings(i.ring, j.ring), exps)


def _require_inputs(i: MonomialIdeal, j: MonomialIdeal, k: int) -> None:
    if k < 1:
        raise VidealError("expansion checks need k >= 1")
    if not (i.is_proper_nonzero() and j.is_proper_nonzero()):
        raise ImproperIdealError("expansion checks need proper nonzero summands")


def binomial_expansion(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> MonomialIdeal:
    """The expanded k-th member: the sum over i+j = k of the products of
    the summand filtration members, embedded into S.  The variables of S
    are I's followed by J's, so the product of u and v has exponent u + v."""
    _require_inputs(i, j, k)
    exps: set[tuple[int, ...]] = set()
    for d in range(k + 1):
        left = filtration_member(kind, i, k - d).exps()
        right = filtration_member(kind, j, d).exps()
        for u in left:
            exps.update(u + v for v in right)
    return from_exps(join_rings(i.ring, j.ring), exps)


def direct_term(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> MonomialIdeal:
    """The k-th filtration member of the sum ideal, computed entirely in
    S with no expansion."""
    _require_inputs(i, j, k)
    return filtration_member(kind, join_ideals(i, j), k)


@dataclass(frozen=True, slots=True)
class ExpansionReport:
    kind: FiltrationKind
    k: int
    expansion_holds: bool
    direct: MonomialIdeal
    expanded: MonomialIdeal
    mismatch_witnesses: tuple[Monomial, ...]


def verify_expansion(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> ExpansionReport:
    """Compare the direct k-th member of the sum against the binomial
    expansion; list up to ten generators separating the two."""
    direct = direct_term(kind, i, j, k)
    expanded = binomial_expansion(kind, i, j, k)
    holds = direct == expanded
    witnesses: tuple[Monomial, ...] = ()
    if not holds:
        # No generator of one side lies in the other's ideal, so it is not
        # a generator there: the separating exponent tuples are distinct.
        separating = [g.exp for g in direct.gens if not expanded.contains(g)]
        separating += [g.exp for g in expanded.gens if not direct.contains(g)]
        canonical_sort(separating)
        witnesses = tuple(Monomial(direct.ring, e) for e in separating[:10])
    return ExpansionReport(kind, k, holds, direct, expanded, witnesses)


@dataclass(frozen=True, slots=True)
class RhsCandidate:
    """One admissible split depth d with its formula value and the
    summand witnesses behind it."""

    d: int
    value: int
    p_witness: Monomial
    q_witness: Monomial


@dataclass(frozen=True, slots=True)
class RhsResult:
    value: int
    achieved: tuple[int, ...]
    candidates: tuple[RhsCandidate, ...]


def theorem_rhs(
    kind: FiltrationKind,
    i: MonomialIdeal,
    j: MonomialIdeal,
    k: int,
    p: PrimeSupport,
    q: PrimeSupport,
) -> RhsResult | None:
    """The min-formula value for the pair (p, q): minimize, over split
    depths 0 <= d < k with p associated to the (k-d)-th member of i's
    filtration and q to the (d+1)-st member of j's, the sum of the two
    local v-numbers.  None when no depth is admissible.

    All depths are evaluated eagerly so reports carry the complete
    achieving set.
    """
    _require_inputs(i, j, k)
    if p.ring != i.ring or q.ring != j.ring:
        raise VidealError("p must live in the ring of i, and q in the ring of j")
    candidates: list[RhsCandidate] = []
    for d in range(k):
        left = filtration_member(kind, i, k - d)
        right = filtration_member(kind, j, d + 1)
        if p not in associated_primes(left) or q not in associated_primes(right):
            continue
        vi = local_v(left, p)
        vj = local_v(right, q)
        candidates.append(
            RhsCandidate(d, vi.degree + vj.degree, vi.witness, vj.witness)
        )
    if not candidates:
        return None
    value = min(c.value for c in candidates)
    achieved = tuple(c.d for c in candidates if c.value == value)
    return RhsResult(value, achieved, tuple(candidates))


@dataclass(frozen=True, slots=True)
class TheoremRow:
    """One mixed associated prime of the direct side, with the directly
    computed local v-number (lhs) and the min-formula value (rhs)."""

    prime: PrimeSupport
    p: PrimeSupport
    q: PrimeSupport
    lhs: int
    lhs_witness: Monomial
    rhs: RhsResult | None

    @property
    def equal(self) -> bool:
        return self.rhs is not None and self.lhs == self.rhs.value


@dataclass(frozen=True, slots=True)
class TheoremReport:
    kind: FiltrationKind
    k: int
    expansion: ExpansionReport
    rows: tuple[TheoremRow, ...]
    non_mixed_primes: tuple[PrimeSupport, ...]
    v_direct: int
    v_direct_prime: PrimeSupport
    v_formula: int | None
    findings: tuple[str, ...]

    @property
    def global_equal(self) -> bool:
        return self.v_formula is not None and self.v_direct == self.v_formula

    @property
    def ok(self) -> bool:
        return (
            self.expansion.expansion_holds
            and bool(self.rows)
            and all(row.equal for row in self.rows)
            and self.global_equal
        )


def _split_prime(prime: PrimeSupport, ring_a: Ring, ring_b: Ring):
    """Split a prime of S into its A-part and B-part (either may be None)."""
    n = ring_a.nvars
    a_part = tuple(idx for idx in prime.indices if idx < n)
    b_part = tuple(idx - n for idx in prime.indices if idx >= n)
    p = PrimeSupport(ring_a, a_part) if a_part else None
    q = PrimeSupport(ring_b, b_part) if b_part else None
    return p, q


def verify_theorem(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> TheoremReport:
    """Run the full min-formula verification for one instance.

    Checks the binomial expansion first (a failed expansion marks the
    hypothesis unmet but everything is still computed for inspection),
    then compares lhs and rhs for every mixed associated prime of the
    direct side, and finally compares the direct global v-number with
    the restricted min of the formula values.
    """
    expansion = verify_expansion(kind, i, j, k)
    direct = expansion.direct
    rows: list[TheoremRow] = []
    non_mixed: list[PrimeSupport] = []
    findings: list[str] = []
    if not expansion.expansion_holds:
        findings.append("binomial expansion fails; the min-formula hypothesis is unmet")
    for prime in associated_primes(direct):
        p, q = _split_prime(prime, i.ring, j.ring)
        if p is None or q is None:
            non_mixed.append(prime)
            findings.append(f"non-mixed associated prime {prime}")
            continue
        report = local_v(direct, prime)
        rhs = theorem_rhs(kind, i, j, k, p, q)
        rows.append(TheoremRow(prime, p, q, report.degree, report.witness, rhs))
    best_direct = v_number(direct)
    formula_values = [row.rhs.value for row in rows if row.rhs is not None]
    v_formula = min(formula_values) if formula_values else None
    if v_formula is not None and best_direct.degree < v_formula:
        non_mixed_names = ", ".join(str(p) for p in non_mixed)
        findings.append(
            f"direct v-number {best_direct.degree} beats the mixed-prime formula "
            f"{v_formula}; non-mixed primes present: {non_mixed_names or 'none'}"
        )
    return TheoremReport(
        kind=kind,
        k=k,
        expansion=expansion,
        rows=tuple(rows),
        non_mixed_primes=tuple(non_mixed),
        v_direct=best_direct.degree,
        v_direct_prime=best_direct.prime,
        v_formula=v_formula,
        findings=tuple(findings),
    )
