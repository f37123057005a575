"""Graded filtrations of a monomial ideal: ordinary powers, the two
symbolic-power variants, and integral closures of powers.

Symbolic powers never need a saturation loop: localizing a monomial
ideal at a monomial prime has the closed form "delete the exponents of
the other variables".  Integral closure goes through the Newton
polyhedron NP(L) = conv(exponents of G(L)) + nonnegative orthant: the
closure of L is generated by the componentwise-minimal lattice points
of NP(L), and membership of a point is an exact-rational LP.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm as int_lcm
from typing import NamedTuple, Sequence

from . import lp
from .decomposition import _require_proper_nonzero, associated_primes, minimal_primes
from .errors import InternalError, VidealError
from .ideals import (
    MonomialIdeal,
    PrimeSupport,
    as_prime,
    colon_monomial,
    from_exps,
    intersect_all,
    is_squarefree,
    localize,
    power,
    unit_ideal,
)
from .rings import Monomial, divides_exp, exps_of_degree, monomials_up_to_degree, scale_exp


class FiltrationKind(str, Enum):
    ORDINARY = "ordinary"
    SYMBOLIC_ASS = "symb-ass"
    SYMBOLIC_MIN = "symb-min"
    INTEGRAL_CLOSURE = "intclos"

    def __str__(self) -> str:
        return self.value


class NewtonMembership(NamedTuple):
    member: bool
    certificate: tuple[Fraction, ...] | None


def _newton_lp(a: Sequence[int], gens: Sequence[Sequence[int]]):
    """Maximize the total weight of a nonnegative combination of the
    generator exponent vectors staying componentwise below a.

    a lies in the Newton polyhedron iff the optimum reaches 1: any heavier
    combination rescales down to a convex one (the orthant absorbs the
    slack), and a convex combination witnesses optimum >= 1 directly.
    """
    rows = [[v[i] for v in gens] for i in range(len(a))]
    return lp.maximize(rows, a, [1] * len(gens))


def newton_member(
    a: Sequence[int], gens: Sequence[Sequence[int]]
) -> NewtonMembership:
    """Exact membership of the point a in the Newton polyhedron of gens.

    When a is a member, the certificate is a rational convex-combination
    weight vector lambda with sum 1 and sum(lambda_j * gens_j) <= a.
    """
    if not gens:
        raise VidealError("newton_member needs at least one generator")
    if any(len(v) != len(a) for v in gens):
        raise VidealError("newton_member dimension mismatch")
    optimum, x, _ = _newton_lp(a, gens)
    if optimum < 1:
        return NewtonMembership(False, None)
    scaled = tuple(v / optimum for v in x)
    return NewtonMembership(True, scaled)


def power_membership_oracle(a: Sequence[int], l: MonomialIdeal, m_max: int) -> bool:
    """True iff (x^a)^m lies in l^m for some m <= m_max.

    Conservative cross-check for newton_member: False only means "not
    found up to m_max".
    """
    if m_max < 1:
        raise VidealError("m_max must be at least 1")
    exp = tuple(a)
    for m in range(1, m_max + 1):
        target = Monomial(l.ring, scale_exp(exp, m))
        if power(l, m).contains(target):
            return True
    return False


def certificate_denominator_lcm(certificate: Sequence[Fraction]) -> int:
    return int_lcm(*(weight.denominator for weight in certificate))


@lru_cache(maxsize=4096)
def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """The integral closure of a monomial ideal.

    Enumerates the box a_i <= max exponent of G(a) in coordinate i (every
    minimal lattice point of NP(a) is the ceiling of a point of the
    bounded hull, hence lies in this box) in increasing degree and keeps
    the componentwise-minimal Newton-polyhedron members.  Three exact
    prunings keep the LP call count low: points dominating an already
    found member are skipped, points divisible by a generator are members
    outright, and separating inequalities harvested from infeasible LP
    duals reject far-away points without another LP.
    """
    _require_proper_nonzero(a)
    gens = sorted(a.exps(), key=sum)
    t = a.ring.nvars
    bounds = [max(v[i] for v in gens) for i in range(t)]
    deg_min = sum(gens[0])
    # Cuts (w, d): integer w >= 0 with w.v >= d for every generator v, so
    # w.a < d proves a is outside the polyhedron.  Seeded with the degree
    # bound and the per-coordinate minima; grown from LP dual certificates.
    cuts: list[tuple[tuple[int, ...], int]] = [(tuple([1] * t), deg_min)]
    for i in range(t):
        cmin = min(v[i] for v in gens)
        if cmin > 0:
            cuts.append((tuple(1 if j == i else 0 for j in range(t)), cmin))
    found: list[tuple[int, ...]] = []
    for d in range(deg_min, sum(bounds) + 1):
        for point in exps_of_degree(t, d, bounds):
            if any(divides_exp(m, point) for m in found):
                continue
            if any(divides_exp(v, point) for v in gens):
                found.append(point)
                continue
            if any(
                sum(wi * pi for wi, pi in zip(w, point)) < cut_d for w, cut_d in cuts
            ):
                continue
            optimum, _, duals = _newton_lp(point, gens)
            if optimum >= 1:
                found.append(point)
            else:
                scale = int_lcm(*(y.denominator for y in duals)) if duals else 1
                w = tuple(int(y * scale) for y in duals)
                if any(wi < 0 for wi in w):
                    raise InternalError("negative LP dual at optimality")
                cuts.append((w, scale))
    return from_exps(a.ring, found)


@lru_cache(maxsize=8192)
def filtration_member(kind: FiltrationKind, a: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th member of the chosen filtration of a.

    Index 0 is the whole ring for every kind.  Symbolic powers intersect
    the localized ordinary power over the associated (or only the
    minimal) primes of a; the integral-closure filtration closes a^k.
    """
    if k < 0:
        raise VidealError(f"negative filtration index {k}")
    if k == 0:
        return unit_ideal(a.ring)
    _require_proper_nonzero(a)
    if kind is FiltrationKind.ORDINARY:
        return power(a, k)
    if kind is FiltrationKind.SYMBOLIC_ASS or kind is FiltrationKind.SYMBOLIC_MIN:
        primes = (
            associated_primes(a)
            if kind is FiltrationKind.SYMBOLIC_ASS
            else minimal_primes(a)
        )
        pk = power(a, k)
        return intersect_all((localize(pk, p) for p in primes), a.ring)
    if kind is FiltrationKind.INTEGRAL_CLOSURE:
        return integral_closure(power(a, k))
    raise VidealError(f"unknown filtration kind {kind!r}")


@dataclass(frozen=True, slots=True)
class PropertyCheckReport:
    """Outcome of the bounded drop-by-one check on a filtration member.

    For every monomial f up to the degree cap whose colon out of the k-th
    member is a prime, the witness must already lie in the (k-1)-st
    member.  This is an enumeration up to deg_cap, not a proof.
    """

    kind: FiltrationKind
    k: int
    deg_cap: int
    witnesses: tuple[tuple[Monomial, PrimeSupport], ...]
    violations: tuple[Monomial, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_filtration_property(
    kind: FiltrationKind, a: MonomialIdeal, k: int, deg_cap: int
) -> PropertyCheckReport:
    if k < 1:
        raise VidealError("the drop-by-one property needs k >= 1")
    _require_proper_nonzero(a)
    member = filtration_member(kind, a, k)
    previous = filtration_member(kind, a, k - 1)
    witnesses: list[tuple[Monomial, PrimeSupport]] = []
    violations: list[Monomial] = []
    for f in monomials_up_to_degree(a.ring, deg_cap):
        p = as_prime(colon_monomial(member, f))
        if p is None:
            continue
        witnesses.append((f, p))
        if not previous.contains(f):
            violations.append(f)
    return PropertyCheckReport(kind, k, deg_cap, tuple(witnesses), tuple(violations))


def normally_torsion_free(a: MonomialIdeal, k_max: int) -> bool:
    """Bounded check that Ass(a^k) stays inside Ass(a) for k <= k_max.

    Only meaningful (and only accepted) for square-free proper ideals.
    """
    if k_max < 1:
        raise VidealError("k_max must be at least 1")
    _require_proper_nonzero(a)
    if not is_squarefree(a):
        raise VidealError("normally-torsion-free check requires a square-free ideal")
    base = set(associated_primes(a))
    for k in range(2, k_max + 1):
        if not set(associated_primes(power(a, k))) <= base:
            return False
    return True
