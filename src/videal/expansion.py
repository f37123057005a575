"""Binomial-expansion checks for filtrations of a sum of ideals in
disjoint variables, and the min-formula verifier for local and global
v-numbers.

The two sides of every comparison are computed by independent code
paths: the "direct" side works entirely in the joined ring S, while the
"formula" side only ever touches filtrations of the summands in their
own rings.  They meet only in the final equality checks.

Both read v-numbers off the certified witness tables of ``decomposition``:
the direct side's for the rows and the global v-number, and each summand's
once per depth (``_formula_reader``) for the rows' and the global formula.
A row's formula is two facts, its least value and the depths that reach
it (``RhsResult``).

A verdict depends on the filtration only through its members: the k-th
member of I+J and the members 1..k of I and of J (the 0-th is the whole
ring).  Symbolic powers often equal ordinary powers, and then the
verdicts of those kinds coincide.
So ``verify_theorem`` looks the members up (memo reads once the tables
exist) and hands them to ``_verdict``, an ``lru_cache`` keyed by the
member tuple ``(direct, (I_1..I_k), (J_1..J_k))`` and bounded at 64
entries: the kinds of one pair at one k run together, so hits are
adjacent.  It stores only immutable values, and the key only bundles
the two sides: each is still computed from its own members.  The
members of I+J are keyed by one copy of I+J per pair, and so share one
joined ring: ``_joined``, an ``lru_cache`` keyed by the summand pair and
bounded at 64 entries like ``_verdict``, holds the copy in the memo slot
of the ordinary first member, so every kind and k of a pair joins once.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .decomposition import _least, _witnesses
from .errors import ImproperIdealError, InternalError, VidealError
from .filtrations import FiltrationKind, filtration_member
from .ideals import MonomialIdeal, PrimeSupport, from_exps
from .rings import Monomial, Ring, canonical_sort, join_rings
from .vnumbers import v_number


def join_ideals(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """The sum ideal IS + JS inside the joined ring S, whose variables are
    I's followed by J's.

    G(I) and G(J) are antichains in disjoint variables, so a padded
    generator of one divides a padded generator of the other only if it
    is the monomial 1: unless a summand is the unit ideal, the padded
    union is already G(IS + JS) and only needs the canonical sort.
    """
    ring = join_rings(i.ring, j.ring)
    pad_i, pad_j = (0,) * i.ring.nvars, (0,) * j.ring.nvars
    exps = [u + pad_j for u in i.exps()] + [pad_i + v for v in j.exps()]
    if i.is_unit() or j.is_unit():
        return from_exps(ring, exps)
    canonical_sort(exps)
    return MonomialIdeal(ring, tuple(exps))


def _members(kind: FiltrationKind, a: MonomialIdeal, k: int) -> tuple[MonomialIdeal, ...]:
    """The members 1..k of the filtration of a."""
    return tuple([filtration_member(kind, a, m) for m in range(1, k + 1)])


def _expand(
    ring: Ring, left: tuple[MonomialIdeal, ...], right: tuple[MonomialIdeal, ...]
) -> MonomialIdeal:
    """The expansion of the member tuples (I_1..I_k) and (J_1..J_k): the
    sum over d of I_{k-d} J_d in S = ring, whose variables are I's
    followed by J's, so the product of u and v has exponent u + v.  The
    terms I_k J_0 and I_0 J_k are I_k and J_k, padded with zeros."""
    pad_i, pad_j = (0,) * left[0].ring.nvars, (0,) * right[0].ring.nvars
    exps = {u + pad_j for u in left[-1].exps()}
    exps.update(pad_i + v for v in right[-1].exps())
    # I_{k-d} J_d for 0 < d < k.
    for i, j in zip(left[-2::-1], right):
        right_exps = j.exps()
        for u in i.exps():
            exps.update(u + v for v in right_exps)
    return from_exps(ring, exps)


@lru_cache(maxsize=64)
def _joined(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """I+J as the copy that the memo slot of the ordinary first member
    holds (a^1 is a), so it adds no ideal or ring of its own."""
    return filtration_member(FiltrationKind.ORDINARY, join_ideals(i, j), 1)


def direct_term(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> MonomialIdeal:
    """The k-th filtration member of the sum ideal, computed entirely in
    S with no expansion, and keyed by the pair's one copy of I+J
    (``_joined``)."""
    if k < 1:
        raise VidealError("expansion checks need k >= 1")
    if not (i.is_proper_nonzero() and j.is_proper_nonzero()):
        raise ImproperIdealError("expansion checks need proper nonzero summands")
    return filtration_member(kind, _joined(i, j), k)


@dataclass(frozen=True, slots=True)
class ExpansionReport:
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
    return _expansion_report(direct, _members(kind, i, k), _members(kind, j, k))


def _expansion_report(
    direct: MonomialIdeal, left: tuple[MonomialIdeal, ...], right: tuple[MonomialIdeal, ...]
) -> ExpansionReport:
    """``verify_expansion`` on the direct member and the summands' member
    tuples.  When the expansion holds the two ideals are equal, and the
    report holds one copy."""
    expanded = _expand(direct.ring, left, right)
    if direct == expanded:
        return ExpansionReport(True, direct, direct, ())
    # No generator of one side lies in the other's ideal, so it is not
    # a generator there: the separating exponent tuples are distinct.
    separating = [g.exp for g in direct.gens if not expanded.contains(g)]
    separating += [g.exp for g in expanded.gens if not direct.contains(g)]
    canonical_sort(separating)
    witnesses = tuple(Monomial(direct.ring, e) for e in separating[:10])
    return ExpansionReport(False, direct, expanded, witnesses)


@dataclass(frozen=True, slots=True)
class RhsResult:
    value: int
    achieved: tuple[int, ...]


def _formula_reader(left: tuple[MonomialIdeal, ...], right: tuple[MonomialIdeal, ...]):
    """The min-formula on the member tuples (I_1..I_k) and (J_1..J_k): a
    reader of the supports (P, Q) giving the least, over the split depths
    d < k with P associated to I_{k-d} and Q to J_{d+1}, of the sum of the
    two local v-numbers, one lookup in each summand's witness table (a
    missing prime is not associated), with the depths that reach it, or
    None when no depth is admissible; and the global value, min over d of
    v(I_{k-d}) + v(J_{d+1}) from the members' least entries (``_least``).
    Each table is read once here, and the reader passes over every depth
    once, so a result carries the complete achieving set."""
    tables = [(_witnesses(i), _witnesses(j)) for i, j in zip(reversed(left), right)]
    v_formula = min(_least(i).degree + _least(j).degree for i, j in zip(reversed(left), right))

    def read(p: tuple[int, ...], q: tuple[int, ...]) -> RhsResult | None:
        value, achieved = None, []
        for d, (left, right) in enumerate(tables):
            vi, vj = left.get(p), right.get(q)
            if vi is not None and vj is not None:
                total = vi.degree + vj.degree
                if value is None or total < value:
                    value, achieved = total, [d]
                elif total == value:
                    achieved.append(d)
        return None if value is None else RhsResult(value, tuple(achieved))

    return read, v_formula


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
    v_direct: int
    v_direct_prime: PrimeSupport
    v_formula: int
    findings: tuple[str, ...]
    # Every associated prime of the direct side is mixed (verify_theorem).
    non_mixed_primes = ()

    @property
    def global_equal(self) -> bool:
        return self.v_direct == self.v_formula

    @property
    def ok(self) -> bool:
        return (
            self.expansion.expansion_holds
            and all(row.equal for row in self.rows)
            and self.global_equal
        )


def verify_theorem(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> TheoremReport:
    """Run the full min-formula verification for one instance.

    Checks the binomial expansion first (a failed expansion marks the
    hypothesis unmet but everything is still computed for inspection),
    then compares lhs and rhs for every associated prime of the direct
    side, each mixed since the member contains I^k and J^k (else an
    internal error), and finally compares the direct global v-number with
    the least over 0 <= d < k of v(I_{k-d}) + v(J_{d+1}), read from the
    summands' tables alone.  All of it depends on the filtration only
    through the members, so kinds whose members coincide share one
    ``_verdict``.
    """
    direct = direct_term(kind, i, j, k)
    # direct_term has accepted the kind; a value string reports as its member.
    kind = FiltrationKind(kind)
    return TheoremReport(kind, k, *_verdict(direct, _members(kind, i, k), _members(kind, j, k)))


@lru_cache(maxsize=64)
def _verdict(
    direct: MonomialIdeal, left: tuple[MonomialIdeal, ...], right: tuple[MonomialIdeal, ...]
) -> tuple[ExpansionReport, tuple[TheoremRow, ...], int, PrimeSupport, int, tuple[str, ...]]:
    """The fields of ``verify_theorem``'s report after kind and k, for the
    direct member and the summands' member tuples (I_1..I_k), (J_1..J_k)."""
    expansion = _expansion_report(direct, left, right)
    findings: list[str] = []
    if not expansion.expansion_holds:
        findings.append("binomial expansion fails; the min-formula hypothesis is unmet")
    ring_i, ring_j = left[0].ring, right[0].ring
    # The variables of S are I's (indices below n) followed by J's.
    n = ring_i.nvars
    formula, v_formula = _formula_reader(left, right)
    # One PrimeSupport per distinct split part: rows share them.
    p_supports: dict[tuple[int, ...], PrimeSupport] = {}
    q_supports: dict[tuple[int, ...], PrimeSupport] = {}
    rows: list[TheoremRow] = []
    for report in _witnesses(direct).values():
        prime = report.prime
        indices = prime.indices
        cut = bisect_left(indices, n)
        if not 0 < cut < len(indices):
            raise InternalError(f"associated prime {prime} of {direct} is not mixed")
        p = indices[:cut]
        q = tuple([idx - n for idx in indices[cut:]])
        p_support = p_supports.get(p) or p_supports.setdefault(p, PrimeSupport(ring_i, p))
        q_support = q_supports.get(q) or q_supports.setdefault(q, PrimeSupport(ring_j, q))
        rows.append(TheoremRow(prime, p_support, q_support, report.degree, report.witness,
                               formula(p, q)))
    best = v_number(direct)
    if best.degree < v_formula:
        findings.append(f"direct v-number {best.degree} beats the mixed-prime formula "
                        f"{v_formula}; non-mixed primes present: none")
    return expansion, tuple(rows), best.degree, best.prime, v_formula, tuple(findings)
