"""Reference implementations used only by tests.

Each oracle answers by direct enumeration of the defining condition, or
by an older algorithm the library replaced, so it shares no code path
with the operation it cross-checks.  A few helpers the tests build
instances with live here too, since the library never needs them:
``mul``, ``embed``, ``localize``, ``random_ntf_pair``, the monomial
enumerations ``monomials_of_degree`` and ``monomials_up_to_degree``, and
``mutate_session``, whose seeded mutations of the corpus sessions CI
also pins.
So do ``memos`` and ``clear_memos``, the one list of the library's memos
that the tests clear and CI reports on.
"""

import importlib
import pkgutil
import random
import re
from fractions import Fraction
from itertools import product
from math import lcm
from numbers import Rational
from operator import le, lt, sub
from operator import mul as times
from typing import Iterable, NoReturn, Sequence

import videal
from videal import decomposition, parser
from videal.decomposition import _decomposition, associated_primes, minimal_primes
from videal.errors import ImproperIdealError, InternalError, NoWitnessError, ParseError
from videal.expansion import RhsResult
from videal.lp import _newton_facets
from videal.filtrations import FiltrationKind, filtration_member, normally_torsion_free
from videal.ideals import (
    MonomialIdeal,
    PrimeSupport,
    colon_monomial,
    from_exps,
    intersect_all,
    power,
    sum_ideals,
    unit_ideal,
)
from videal.randgen import random_ideal, random_ring
from videal.rings import (
    Monomial,
    Ring,
    check_same_ring,
    divides_exp,
    join_rings,
    mul_exp,
)
from videal.vnumbers import VReport, local_v, v_number


def memos() -> list:
    """Every memo bound in a ``videal`` module: each object with a
    ``cache_clear``, once however many modules import it, ordered by
    module and name."""
    found = {}
    for info in pkgutil.iter_modules(videal.__path__):
        module = importlib.import_module(f"videal.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return sorted(found.values(), key=lambda memo: (memo.__module__, memo.__name__))


def clear_memos() -> None:
    """Empty every memo of the library, so the next calls compute afresh."""
    for memo in memos():
        memo.cache_clear()


def mul(u: Monomial, f: Monomial) -> Monomial:
    """The product of two monomials of one ring."""
    return Monomial(check_same_ring(u, f), mul_exp(u.exp, f.exp))


def embed(f: Monomial, dst: Ring) -> Monomial:
    """Embed a monomial into a larger ring containing its variables,
    matched by name, padding the new coordinates with zeros."""
    vec = [0] * dst.nvars
    for var, e in zip(f.ring.vars, f.exp):
        vec[dst.index(var)] = e
    return Monomial(dst, tuple(vec))


def localize(a: MonomialIdeal, p: PrimeSupport) -> MonomialIdeal:
    """The contraction a R_p ∩ R for a monomial prime p.

    Variables outside p become units in R_p, so localization just
    deletes their exponents from every generator.  A generator supported
    entirely outside p becomes 1 and the result is the unit ideal.
    """
    ring = check_same_ring(a, p)
    keep = set(p.indices)
    mapped = {
        tuple(e if i in keep else 0 for i, e in enumerate(u)) for u in a.exps()
    }
    return from_exps(ring, mapped)


def random_ntf_pair(
    rng: random.Random,
    max_vars: int = 3,
    max_gens: int = 4,
    max_exp: int = 2,
    k_max: int = 3,
    max_attempts: int = 1000,
) -> tuple[MonomialIdeal, MonomialIdeal, int]:
    """A random pair whose first ideal is square-free and normally
    torsion-free up to k_max.  Rejected draws are counted, never skipped
    silently; the attempt count is returned."""
    for attempts in range(1, max_attempts + 1):
        ring_a = random_ring(rng, "A", "x", max_vars)
        ring_b = random_ring(rng, "B", "y", max_vars)
        i = random_ideal(rng, ring_a, max_gens, max_exp, squarefree=True)
        j = random_ideal(rng, ring_b, max_gens, max_exp)
        if normally_torsion_free(i, k_max):
            return i, j, attempts
    raise InternalError("could not draw a normally-torsion-free ideal")


def canonical_key(exp: tuple[int, ...]) -> tuple:
    """Sort key for the canonical monomial order: graded, then lex by the
    ring's variable order (higher power of an earlier variable first).
    One key per element, against ``rings.canonical_sort``."""
    return (sum(exp), tuple(-e for e in exp))


def recursive_exps_of_degree(nvars: int, d: int):
    """All exponent vectors of total degree d, by the recursive definition
    the library replaced: the first exponent runs from d down to 0, and
    the rest is each vector of the remaining degree in one variable fewer.
    The order oracle for ``rings.exps_of_degree``."""
    if nvars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in recursive_exps_of_degree(nvars - 1, d - e):
            yield (e,) + rest


def monomials_of_degree(ring: Ring, d: int):
    """All monomials of degree d, in canonical order, enumerated by
    ``recursive_exps_of_degree``: a copy of the library call that no CLI
    command needed."""
    for exp in recursive_exps_of_degree(ring.nvars, d):
        yield Monomial(ring, exp)


def monomials_up_to_degree(ring: Ring, cap: int):
    """All monomials of degree <= cap, in increasing canonical order."""
    for d in range(cap + 1):
        yield from monomials_of_degree(ring, d)


def as_prime(a: MonomialIdeal) -> PrimeSupport | None:
    """The prime support of a, or None if a is not a monomial prime: the
    test on a built colon ideal that the colon rule replaced
    (``tuple_colon_prime``, now ``decomposition._colon_prime``)."""
    exps = a.exps()
    if not exps or any(sum(u) != 1 for u in exps):
        return None
    # Canonical order lists the variables x_i in increasing index i.
    return PrimeSupport(a.ring, tuple(u.index(1) for u in exps))


def colon_members(
    a: MonomialIdeal, divisors: list[Monomial], deg_cap: int
) -> MonomialIdeal:
    """The ideal generated by all g with deg(g) <= deg_cap such that g*v
    lies in a for every divisor v (the membership definition of colon)."""
    members = [
        g.exp
        for g in monomials_up_to_degree(a.ring, deg_cap)
        if all(a.contains(mul(g, v)) for v in divisors)
    ]
    return from_exps(a.ring, members)


def brute_force_ass(a: MonomialIdeal, deg_cap: int):
    """All primes of the form a : f over monomials f with deg <= deg_cap."""
    primes = set()
    for f in monomials_up_to_degree(a.ring, deg_cap):
        p = as_prime(colon_monomial(a, f))
        if p is not None:
            primes.add(p)
    return tuple(sorted(primes, key=lambda p: p.indices))


def enumerated_property_check(
    kind: FiltrationKind, a: MonomialIdeal, k: int, deg_cap: int
) -> tuple[tuple[tuple[Monomial, PrimeSupport], ...], tuple[Monomial, ...]]:
    """The witnesses and violations of the bounded drop-by-one check, by
    building the colon ideal of the k-th member by each monomial f of
    degree <= deg_cap: f is a witness when that colon ideal is a prime,
    and a violation when it also lies outside the (k-1)-st member."""
    member = filtration_member(kind, a, k)
    previous = filtration_member(kind, a, k - 1)
    witnesses = []
    violations = []
    for f in monomials_up_to_degree(a.ring, deg_cap):
        p = as_prime(colon_monomial(member, f))
        if p is not None:
            witnesses.append((f, p))
            if not previous.contains(f):
                violations.append(f)
    return tuple(witnesses), tuple(violations)


def same_ideal_up_to(a: MonomialIdeal, b: MonomialIdeal, deg_cap: int) -> bool:
    """Membership agreement on every monomial of degree <= deg_cap."""
    return all(
        a.contains(f) == b.contains(f)
        for f in monomials_up_to_degree(a.ring, deg_cap)
    )


def splitting_decomposition(a: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """The irredundant irreducible components of a proper nonzero ideal,
    by the splitting recursion: while some generator factors into coprime
    non-unit parts v and w, a is the intersection of a + (v) and a + (w).
    The leaves are irreducible; redundant ones (containing another leaf)
    are dropped by pairwise containment.  Sorted like the components of
    irreducible_decomposition."""
    leaves = set()
    stack = [a]
    while stack:
        cur = stack.pop()
        for g in cur.gens:
            support = [i for i, e in enumerate(g.exp) if e]
            if len(support) >= 2:
                i = support[0]
                v = tuple(e if j == i else 0 for j, e in enumerate(g.exp))
                w = tuple(0 if j == i else e for j, e in enumerate(g.exp))
                stack.append(sum_ideals(cur, from_exps(cur.ring, [v])))
                stack.append(sum_ideals(cur, from_exps(cur.ring, [w])))
                break
        else:
            leaves.add(cur)
    kept = [
        q for q in leaves
        if not any(other != q and q.contains_ideal(other) for other in leaves)
    ]
    return tuple(sorted(kept, key=lambda q: tuple(canonical_key(e) for e in q.exps())))


ZERO = Fraction(0)


def maximize(
    a_rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
    c: Sequence[Rational],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact-rational simplex: maximize c.x subject to A x <= b, x >= 0,
    with b >= 0 so the slack basis is feasible and no phase one is
    needed.  Returns (optimum, primal solution x, dual values y).

    Entries may be ints or Fractions; each is converted to Fraction once,
    when the dense tableau is built, and Bland's rule guards against
    cycling.  The duals are the shadow prices of the <= constraints; at
    optimality they satisfy y >= 0, y.A >= c componentwise, and
    y.b = optimum.
    """
    m = len(a_rows)
    n = len(c)
    if any(len(row) != n for row in a_rows) or len(b) != m:
        raise InternalError("inconsistent LP dimensions")
    if any(v < 0 for v in b):
        raise InternalError("this solver needs b >= 0 (slack basis start)")

    # Columns: 0..n-1 structural, n..n+m-1 slack; rows carry b in the last slot.
    tableau = [
        [Fraction(v) for v in row]
        + [Fraction(1) if i == j else ZERO for j in range(m)]
        + [Fraction(b[i])]
        for i, row in enumerate(a_rows)
    ]
    # Objective row holds reduced costs; entry > 0 means improving.
    obj = [Fraction(v) for v in c] + [ZERO] * m + [ZERO]
    basis = list(range(n, n + m))
    total = n + m

    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                # Bland: smallest ratio, ties by smallest basis variable.
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalError("LP is unbounded; malformed membership query")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            for j in range(total + 1):
                pivot_row[j] /= pivot
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                row = tableau[i]
                for j in range(total + 1):
                    row[j] -= factor * pivot_row[j]
        if obj[enter] != 0:
            factor = obj[enter]
            for j in range(total + 1):
                obj[j] -= factor * pivot_row[j]
        basis[leave] = enter

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    optimum = -obj[total]
    duals = [-obj[n + i] for i in range(m)]
    return optimum, x, duals


def newton_lp(a: Sequence[int], gens: Sequence[Sequence[int]]):
    """Maximize the total weight of a nonnegative combination of the
    generator exponent vectors staying componentwise below a.

    a lies in the Newton polyhedron iff the optimum reaches 1: any heavier
    combination rescales down to a convex one (the orthant absorbs the
    slack), and a convex combination witnesses optimum >= 1 directly.
    Defined for a >= 0 and no zero generator (else the LP is unbounded).
    """
    rows = [[v[i] for v in gens] for i in range(len(a))]
    return maximize(rows, a, [1] * len(gens))


def lp_newton_member(
    a: Sequence[int], gens: Sequence[Sequence[int]]
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Newton-polyhedron membership by the LP, against lp.newton_member.

    A member comes with a rational convex-combination weight vector
    lambda, sum 1 and sum(lambda_j * gens_j) <= a; a non-member with None.
    """
    optimum, x, _ = newton_lp(a, gens)
    if optimum < 1:
        return False, None
    return True, tuple(v / optimum for v in x)


def box_scan_integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """The integral closure of a proper nonzero ideal by an exact LP per
    point: scan the box u_i <= max exponent of G(a) in coordinate i in
    increasing degree and keep the componentwise-minimal members of the
    Newton polyhedron.  Points dominating a found member are skipped,
    points divisible by a generator are members outright, and separating
    inequalities harvested from the duals of failed LPs reject further
    points without another LP."""
    gens = sorted(a.exps(), key=sum)
    t = a.ring.nvars
    bounds = [max(v[i] for v in gens) for i in range(t)]
    # Cuts (w, d): integer w >= 0 with w.v >= d for every generator v, so
    # w.u < d proves u is outside the polyhedron.
    cuts = [(tuple([1] * t), sum(gens[0]))]
    for i in range(t):
        cmin = min(v[i] for v in gens)
        if cmin > 0:
            cuts.append((tuple(1 if j == i else 0 for j in range(t)), cmin))
    found: list[tuple[int, ...]] = []
    for point in sorted(product(*(range(b + 1) for b in bounds)), key=canonical_key):
        if any(divides_exp(m, point) for m in found):
            continue
        if any(divides_exp(v, point) for v in gens):
            found.append(point)
            continue
        if any(sum(wi * pi for wi, pi in zip(w, point)) < d for w, d in cuts):
            continue
        optimum, _, duals = newton_lp(point, gens)
        if optimum >= 1:
            found.append(point)
        else:
            scale = lcm(*(y.denominator for y in duals))
            w = tuple(int(y * scale) for y in duals)
            assert all(wi >= 0 for wi in w), "negative LP dual at optimality"
            cuts.append((w, scale))
    return from_exps(a.ring, found)


def fibre_scan_minimal_points(
    facets: Sequence[tuple[tuple[int, ...], int]], bounds: Sequence[int]
) -> list[tuple[int, ...]]:
    """The componentwise-minimal lattice points u >= 0 of the facet
    inequalities w.u >= d, all of them in the box u <= bounds, found
    fibre by fibre: for every q in the box of the coordinates other than
    ``last`` (the one with the largest bound), c(q) is the least u_last
    with (q, c(q)) inside, or None when a facet without a u_last term
    fails on q; (q, c(q)) is minimal iff it lies in the box and c(q - e_j)
    is None or above c(q) for every j with q_j > 0."""
    t = len(bounds)
    last = max(range(t), key=bounds.__getitem__)
    others = [i for i in range(t) if i != last]
    walls = [(tuple(w[i] for i in others), d) for w, d in facets if not w[last]]
    slopes = [(tuple(w[i] for i in others), d, w[last]) for w, d in facets if w[last]]
    # q - e_j sits strides[j] positions before q in product() order.
    strides = [1] * len(others)
    for k in range(len(others) - 2, -1, -1):
        strides[k] = strides[k + 1] * (bounds[others[k + 1]] + 1)
    least: list[int | None] = []
    points = []
    for at, q in enumerate(product(*(range(bounds[i] + 1) for i in others))):
        if any(sum(map(times, w, q)) < d for w, d in walls):
            least.append(None)
            continue
        c = max([0] + [-((sum(map(times, w, q)) - d) // w_last) for w, d, w_last in slopes])
        least.append(c)
        if c > bounds[last]:
            continue
        if all(least[at - stride] is None or least[at - stride] > c
               for qj, stride in zip(q, strides) if qj):
            point = list(q)
            point.insert(last, c)
            points.append(tuple(point))
    return points


def brute_force_local_v(
    a: MonomialIdeal, p: PrimeSupport, deg_cap: int
) -> VReport | None:
    """First monomial f (increasing canonical order, degree <= deg_cap)
    with a : f = p, or None if there is none within the cap."""
    target = p.as_ideal()
    for f in monomials_up_to_degree(a.ring, deg_cap):
        if colon_monomial(a, f) == target:
            return VReport(f.degree, f, p)
    return None


def colon_chain_local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    """local_v by the chain of colon parts that the corner search
    replaced: it builds G(a : p) with pairwise lcms and returns its first
    member f (in canonical order) whose colon ideal a : f is p, or raises
    NoWitnessError.  It calls neither the library's intersection nor its
    colon rule."""
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    check_same_ring(a, p)
    # a : x_i is a + (u / x_i : x_i divides u in G(a)), and monomial ideals
    # form a distributive lattice, so a : p is a plus the intersection of the parts.
    # G(a) is a canonical antichain, and so is each part: u - e_i divides
    # v - e_i iff u divides v, and subtracting e_i from every vector keeps
    # both their degree order and their lex order.  The parts are met
    # smallest first, which keeps the running intersection, and with it
    # the pairwise lcms, small.
    gens = a.exps()
    parts = sorted(
        (tuple(u[:i] + (u[i] - 1,) + u[i + 1:] for u in gens if u[i]) for i in p.indices), key=len
    )
    shared = parts[0]
    for part in parts[1:]:
        shared = pairwise_lcm_intersection(shared, part)
    # G(a : p) lies in G(a) ∪ shared, and members of a fail the test, so
    # the candidates are shared.  It is canonically sorted, so the first
    # survivor is the minimum-degree witness with canonical tie-breaking.
    for f in shared:
        if colon_ideal_certifies(a, f, p.indices):
            return VReport(sum(f), Monomial(a.ring, f), p)
    raise NoWitnessError(
        f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
    )


def _keep_maximal(kept: list[tuple[int, ...]], candidates: Iterable[tuple[int, ...]]) -> None:
    """Append to kept each candidate that lies componentwise below no
    vector kept so far.

    The candidates come in non-increasing degree, kept starts as an
    antichain, and no candidate lies properly above a vector in it.  A
    vector lies below only vectors of no smaller degree, and two distinct
    vectors of equal degree never lie below each other, so only vectors
    kept before a candidate can lie above it: kept ends as the antichain
    of the maximal vectors among its own and the candidates.
    """
    for c in candidates:
        for d in kept:
            # c <= d componentwise only if c <= d lexicographically: a cheap pre-test.
            if c <= d and all(map(le, c, d)):
                break
        else:
            kept.append(c)


def dominance_corners(gens: tuple[tuple[int, ...], ...], top: int) -> list[tuple[int, ...]]:
    """The corners of the irredundant irreducible decomposition of the
    ideal generated by gens (every exponent below top), by the corner step
    that ``decomposition._corners`` replaced with the reflected meet sweep:
    generators are added one at a time to the corner (top, ..., top) of
    the zero ideal.  A corner b whose component holds the new generator m
    stays; otherwise b is replaced by b with b_i lowered to m_i, for each
    i in supp(m), and a new corner below another corner is dropped."""
    corners = [(top,) * len(gens[0])]
    for m in gens:
        support = [i for i, e in enumerate(m) if e]
        kept = []
        new = set()
        for b in corners:
            if any(map(le, b, m)):
                kept.append(b)
            else:
                for i in support:
                    new.add(b[:i] + (m[i],) + b[i + 1:])
        # A new corner lies below some old corner, so never above a kept one.
        _keep_maximal(kept, sorted(new, key=sum, reverse=True))
        corners = kept
    return corners


def summand_corners(
    kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int
) -> tuple[int, set[tuple[int, ...]]]:
    """The corners of sum_d I_{k-d} J_d (I_0 = J_0 the whole ring) for the
    members of the kind's filtrations of I and J, in the ring of I's
    variables followed by J's, built from the summands alone, with their
    top.  That sum is the k-th member of I + J exactly when the binomial
    expansion holds.

    For decreasing filtrations in disjoint variables, sum_d I_{k-d} J_d =
    the intersection of I_d + J_{k+1-d} over d in 1..k: if x^u y^v lies in
    every I_d + J_{k+1-d} and a < k is the largest index with x^u in I_a,
    then x^u is not in I_{a+1}, so y^v lies in J_{k-a}.  A component of
    I_d + J_{k+1-d} is the sum of one of I_d and one of J_{k+1-d}, whose
    corner is the concatenation (b, c) of their corners, each summand's
    top entries mapped to a common top; the irredundant corners are the
    maximal concatenations.  The summands' corners come from
    ``dominance_corners``.  The common top is one more than the largest
    finite entry, which is the top of the sum's own decomposition: for a
    minimal generator u with u_i the largest exponent of x_i, u / x_i
    lies outside some component that u lies in, which takes b_i = u_i.
    """
    candidates = set()
    for d in range(1, k + 1):
        sides = []
        for a, m in ((i, d), (j, k + 1 - d)):
            gens = filtration_member(kind, a, m).exps()
            top = max(map(max, gens)) + 1
            sides.append([tuple(None if e == top else e for e in b) for b in dominance_corners(gens, top)])
        candidates.update(b + c for b in sides[0] for c in sides[1])
    top = 1 + max(e for b in candidates for e in b if e is not None)
    kept: list[tuple[int, ...]] = []
    lifted = {tuple(top if e is None else e for e in b) for b in candidates}
    _keep_maximal(kept, sorted(lifted, key=sum, reverse=True))
    return top, set(kept)


def summand_closure(i: MonomialIdeal, j: MonomialIdeal, k: int) -> MonomialIdeal:
    """The integral closure of (I+J)^k, in the ring of I's variables
    followed by J's, built from the summands alone: the sum of the
    products closure(I^a) closure(J^(k-a)) of rational powers, over the
    values a = m/d in [0, k] for the facet constants d of NP(I).

    ord_L(u) = min over the facets (w, d) of NP(L) of w.u / d, and
    ord_{I+J}(u, v) = ord_I(u) + ord_J(v), since NP(I+J) is the convex
    hull of NP(I) x orthant and orthant x NP(J); x^u y^v lies in the
    closure of (I+J)^k iff that sum is at least k.  Then a = min(ord_I(u),
    k) is one of the values, x^u lies in closure(I^a) and y^v in
    closure(J^(k-a)); and every such product lies in the closure.  The
    rational power closure(L^a), a = p/q, holds the x^u with w.u >= a d
    on every facet: its minimal points are those of the facets (q w, p d),
    found by ``fibre_scan_minimal_points`` in the box of the ceiling of a
    times the largest exponent per coordinate (a minimal point is the
    ceiling of a point of a conv(G(L)), which lies in that box).
    """
    facets = {side: _newton_facets(side.exps()) for side in (i, j)}

    def rational_power(side: MonomialIdeal, a: Fraction) -> list[tuple[int, ...]]:
        scaled = [(tuple(a.denominator * e for e in w), a.numerator * d) for w, d in facets[side]]
        bounds = [-(-a.numerator * max(column) // a.denominator) for column in zip(*side.exps())]
        return fibre_scan_minimal_points(scaled, bounds)

    values = {Fraction(m, d) for d in {d for _, d in facets[i]} for m in range(k * d + 1)}
    exps = set()
    for a in values:
        right = rational_power(j, k - a)
        exps.update(u + v for u in rational_power(i, a) for v in right)
    return from_exps(join_rings(i.ring, j.ring), exps)


def _least_raise(
    hard: list[tuple[int, ...]], outside: list[int], top: int, limit: int | None
) -> tuple[int, tuple[int, ...]] | None:
    """The least degree of a raise g of the coordinates outside P (listed
    in outside, in increasing order) that meets every corner b in hard
    (g_j >= b_j < top for some j in outside), and the lexicographically
    greatest such g of that degree, as a vector over outside; None if
    there is none of degree at most limit.

    Raising into the component of b also raises into that of every
    corner that lies below b outside P, so only the maximal restrictions
    of the corners to outside count.  Then branch and bound: branch on
    the first vector not yet met, raising one g_j to its b_j, and prune
    above the best degree so far.  Every minimum-degree raise is reached:
    at each branch some g_j must be raised to at least b_j, and raising
    it to exactly b_j stays below that raise.
    """
    kept: list[tuple[int, ...]] = []
    vectors = {tuple(b[j] for j in outside) for b in hard}
    _keep_maximal(kept, sorted(vectors, key=sum, reverse=True))
    size = len(kept)
    best = None
    stack = [(0, (0,) * len(outside), 0)]
    while stack:
        k, g, degree = stack.pop()
        if limit is not None and degree > limit:
            continue
        while k < size and any(map(le, kept[k], g)):
            k += 1
        if k == size:
            if best is None or degree < limit or g > best[1]:
                limit, best = degree, (degree, g)
        elif limit is None or degree < limit:
            # g_j < c_j here, so each raise adds at least one degree.
            for j, e in enumerate(kept[k]):
                if e < top:
                    stack.append((k + 1, g[:j] + (e,) + g[j + 1:], degree + e - g[j]))
    return best


def scan_witnesses(a: MonomialIdeal) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """The witness search that the bitmask kernel of
    ``decomposition._witnesses`` replaced, uncertified: for each support P
    of a corner, the least degree of an f with a : f = p and the
    lexicographically greatest such f, from one scan of every corner per
    P-primary corner b0 and a branch and bound over the maximal
    restrictions of the hard corners outside P."""
    corners, top, _ = corner_tuples(a)
    by_support: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for b in corners:
        by_support.setdefault(tuple(i for i, e in enumerate(b) if e < top), []).append(b)
    table = {}
    for indices in sorted(by_support):
        # f = b0 - shift is b0 - 1 on P and 0 outside P.
        shift = [top] * a.ring.nvars
        for i in indices:
            shift[i] = 1
        outside = [j for j, e in enumerate(shift) if e == top]
        best_degree = None
        best = None
        for b0 in sorted(by_support[indices], key=sum):
            f = list(map(sub, b0, shift))
            degree = sum(f)
            if best_degree is not None and degree > best_degree:
                break
            # f lies outside the component of b iff f < b componentwise; such
            # a b is compatible (b_P = b0_P) iff b <= b0.
            hard = [b for b in corners if all(map(lt, f, b)) and not all(map(le, b, b0))]
            if hard:
                rest = _least_raise(
                    hard, outside, top, None if best_degree is None else best_degree - degree
                )
                if rest is None:
                    continue
                degree += rest[0]
                for j, e in zip(outside, rest[1]):
                    f[j] = e
            f = tuple(f)
            if best_degree is None or degree < best_degree or f > best:
                best_degree, best = degree, f
        table[indices] = (best_degree, best)
    return table


def colon_ideal_certifies(a: MonomialIdeal, f: tuple[int, ...], indices: tuple[int, ...]) -> bool:
    """Whether a : f = p, for p = (x_i : i in indices), by building the
    colon ideal and comparing it with p: the witness certificate that
    ``decomposition._membership_certifies`` replaced."""
    return colon_monomial(a, Monomial(a.ring, f)) == PrimeSupport(a.ring, indices).as_ideal()


def tuple_colon_prime(gens: tuple[tuple[int, ...], ...], f: tuple[int, ...]) -> tuple[int, ...] | None:
    """The support, in increasing order, of the prime p with a : f = p,
    for G(a) = gens; None if a : f is not a monomial prime.  The colon
    rule read coordinate by coordinate, as ``decomposition._colon_prime``
    read it before it moved to packed lanes: a : f is generated by the
    quotients u / gcd(u, f), and it is the prime on H, the set of i with
    x_i a quotient, iff H is non-empty and every quotient meets H."""
    hit = set()
    others = []
    for u in gens:
        over = [i for i, e in enumerate(u) if e > f[i]]
        if not over:
            return None
        if len(over) == 1 and u[over[0]] == f[over[0]] + 1:
            hit.add(over[0])
        else:
            others.append(over)
    if not hit or any(hit.isdisjoint(over) for over in others):
        return None
    return tuple(sorted(hit))


def tuple_membership_certifies(
    gens: tuple[tuple[int, ...], ...], f: tuple[int, ...], indices: tuple[int, ...]
) -> bool:
    """Whether a : f = p, for G(a) = gens and p = (x_i : i in indices), by
    membership in a, coordinate by coordinate, as
    ``decomposition._membership_certifies`` read it before it moved to
    packed lanes: no generator divides f on P alone, and x_i f lies in a
    for every i in P."""
    if any(all(u[i] <= f[i] for i in indices) for u in gens):
        return False
    return all(
        any(all(map(le, u, f[:i] + (f[i] + 1,) + f[i + 1:])) for u in gens) for i in indices
    )


def pack_exps(vectors: Iterable[Sequence[int]], width: int) -> list[int]:
    """Each vector as one int, coordinate i in bits i * width and up: the
    lane layout of ``decomposition``, written as a sum so that it shares
    no code with ``decomposition._pack``."""
    return [sum(e << i * width for i, e in enumerate(v)) for v in vectors]


def unpack_exps(packed: Iterable[int], n: int, width: int) -> list[tuple[int, ...]]:
    """The n coordinates of each int packed by ``pack_exps``."""
    return [tuple(v >> i * width & (1 << width) - 1 for i in range(n)) for v in packed]


def lane_width(top: int) -> int:
    """The lane width of vectors whose entries are at most top: room for
    top and a guard bit above it."""
    return top.bit_length() + 1


def guard_bits(indices: Iterable[int], width: int) -> int:
    """The guard bits (the high bit of each lane) of the given lanes."""
    return sum(1 << i * width + width - 1 for i in indices)


def unpack_corner_set(
    value: tuple, n: int
) -> tuple[list[tuple[int, ...]], int, tuple[int, ...]]:
    """A value (data, top, table, least) of ``decomposition._decomposition``
    for an ideal in n variables as its corners' exponent tuples, their top
    and their support masks (bit i set iff b_i < top), derived here from
    the corners; the table and its least entry are not read.  data packs each corner's n lanes of
    ``lane_width(top)`` bits in ceil(n * width / 8) little-endian bytes,
    and nothing else: no support is stored beside them.  Read here through
    one int of all the bytes."""
    data, top, _, _ = value
    width = lane_width(top)
    size = -(-n * width // 8)
    count = len(data) // size
    assert len(data) == count * size
    whole = int.from_bytes(data, "little")
    records = [whole >> 8 * size * r & (1 << 8 * size) - 1 for r in range(count)]
    # Every record is a corner: no bit above its n lanes, no entry above top.
    assert all(v >> n * width == 0 for v in records)
    corners = unpack_exps(records, n, width)
    assert all(max(b) <= top for b in corners)
    supports = tuple(sum(1 << i for i, e in enumerate(b) if e < top) for b in corners)
    return corners, top, supports


def corner_tuples(a: MonomialIdeal) -> tuple[list[tuple[int, ...]], int, tuple[int, ...]]:
    """The memoized corners of a (``decomposition._decomposition``) as
    exponent tuples, with their top and their support masks."""
    return unpack_corner_set(_decomposition(a), a.ring.nvars)


def facet_mask_is_closed(
    facets: Sequence[tuple[tuple[int, ...], int]],
    corners: Sequence[tuple[int, ...]], supports: Sequence[int],
) -> bool:
    """Whether the ideal with the given corners, each with its support
    mask, holds every lattice point u >= 0 of the facet inequalities
    w.u >= d (w >= 0): whether, for every corner b with support P, some
    facet with supp(w) inside P has w.(b - 1) < d.  The facets' support
    masks pick the facets of each corner: the criterion that
    ``decomposition._is_closed`` replaced, which needs no masks."""
    tests = []
    for w, d in facets:
        mask = sum(1 << i for i, x in enumerate(w) if x)
        # With supp(w) inside P, w.(b - 1) < d reads w.b < d + sum(w); the
        # entries of b off P, at top, meet only zero weights.
        tests.append((mask, w, d + sum(w)))
    for b, s in zip(corners, supports):
        if not any(not mask & ~s and sum(map(times, w, b)) < bound for mask, w, bound in tests):
            return False
    return True


def packed_colon_prime(gens: tuple[tuple[int, ...], ...], f: tuple[int, ...]) -> tuple[int, ...] | None:
    """``decomposition._colon_prime`` on G(a) = gens and f, given as
    tuples: packed below top = max exponent + 1, every coordinate of f at
    or above top clamped to top - 1 as ``check-property`` clamps it, and
    the answer's guard bits read back as a support (None for 0)."""
    n = len(f)
    top = max(map(max, gens)) + 1
    width = lane_width(top)
    [v] = pack_exps([[min(e, top - 1) for e in f]], width)
    hit = decomposition._colon_prime(pack_exps(gens, width), v, guard_bits(range(n), width))
    return tuple(i for i in range(n) if hit & guard_bits([i], width)) or None


def packed_membership_certifies(
    gens: tuple[tuple[int, ...], ...], f: tuple[int, ...], indices: tuple[int, ...]
) -> bool:
    """``decomposition._membership_certifies`` on G(a) = gens, f and the
    prime on indices, given as tuples and packed as in
    ``packed_colon_prime``: clamping f below top changes neither
    divisibility test."""
    top = max(map(max, gens)) + 1
    width = lane_width(top)
    [v] = pack_exps([[min(e, top - 1) for e in f]], width)
    return decomposition._membership_certifies(
        pack_exps(gens, width), v, guard_bits(indices, width), guard_bits(range(len(f)), width), top)


def minimal_primes_by_containment(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Min(a) by set containment over every pair of associated primes, in
    the order of Ass(a): the scan (``PrimeSupport.contains_prime``, which
    left the library) that ``decomposition.minimal_primes`` replaced with
    support bit masks."""
    primes = associated_primes(a)
    return tuple(
        p for p in primes
        if not any(q is not p and set(q.indices) <= set(p.indices) for q in primes)
    )


def split_prime(prime: PrimeSupport, ring_a: Ring, ring_b: Ring):
    """Split a prime of the joined ring into its part in ring_a and its
    part in ring_b (either may be None), as the theorem verifier did
    before it read the split off the witness table."""
    n = ring_a.nvars
    a_part = tuple(idx for idx in prime.indices if idx < n)
    b_part = tuple(idx - n for idx in prime.indices if idx >= n)
    p = PrimeSupport(ring_a, a_part) if a_part else None
    q = PrimeSupport(ring_b, b_part) if b_part else None
    return p, q


def per_depth_theorem_rhs(
    kind: FiltrationKind,
    i: MonomialIdeal,
    j: MonomialIdeal,
    k: int,
    p: PrimeSupport,
    q: PrimeSupport,
) -> RhsResult | None:
    """The rhs of a ``verify_theorem`` row for the pair (p, q) by its
    per-depth definition, as the library computed it before it read each
    summand's witness table once: a depth d is admissible when p lies in
    Ass of the (k-d)-th member of i's filtration and q in Ass of the
    (d+1)-st member of j's, and it scores the sum of the two local_v
    degrees."""
    values = {}
    for d in range(k):
        left = filtration_member(kind, i, k - d)
        right = filtration_member(kind, j, d + 1)
        if p not in associated_primes(left) or q not in associated_primes(right):
            continue
        values[d] = local_v(left, p).degree + local_v(right, q).degree
    if not values:
        return None
    value = min(values.values())
    return RhsResult(value, tuple(d for d, v in values.items() if v == value))


def summand_global_formula(kind: FiltrationKind, i: MonomialIdeal, j: MonomialIdeal, k: int) -> int:
    """The paper's global formula for the k-th member of the filtration of
    I+J, from the summands alone: the least over 0 <= d < k of
    v(I_{k-d}) + v(J_{d+1}), each from ``v_number`` of a member."""
    return min(v_number(filtration_member(kind, i, k - d)).degree
               + v_number(filtration_member(kind, j, d + 1)).degree for d in range(k))


def power_membership_oracle(a: Sequence[int], l: MonomialIdeal, m_max: int) -> bool:
    """True iff (x^a)^m lies in l^m for some m <= m_max.

    Conservative cross-check for Newton membership: False only means "not
    found up to m_max".
    """
    for m in range(1, m_max + 1):
        if power(l, m).contains(Monomial(l.ring, tuple(e * m for e in a))):
            return True
    return False


def certificate_denominator_lcm(certificate: Sequence[Fraction]) -> int:
    return lcm(*(weight.denominator for weight in certificate))


def degree_sweep_minimal_exps(exps) -> tuple[tuple[int, ...], ...]:
    """The componentwise-minimal vectors of exps, canonically sorted: a
    sweep in increasing degree against the vectors kept so far, then a
    sort by canonical_key."""
    kept: list[tuple[int, ...]] = []
    for e in sorted(set(exps), key=sum):
        if not any(divides_exp(m, e) for m in kept):
            kept.append(e)
    kept.sort(key=canonical_key)
    return tuple(kept)


def pairwise_lcm_intersection(
    x: Sequence[tuple[int, ...]], y: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of (x) ∩ (y): every pairwise lcm, minimalized."""
    return degree_sweep_minimal_exps(tuple(map(max, u, v)) for u in x for v in y)


def all_primes_symbolic_power(
    kind: FiltrationKind, a: MonomialIdeal, k: int
) -> MonomialIdeal:
    """The k-th symbolic power of a proper nonzero ideal: the pairwise-lcm
    intersection of the localizations of a^k at every associated (or
    every minimal) prime, redundant ones included."""
    primes = associated_primes(a) if kind is FiltrationKind.SYMBOLIC_ASS else minimal_primes(a)
    meet = unit_ideal(a.ring).exps()
    for p in primes:
        meet = pairwise_lcm_intersection(meet, localize(power(a, k), p).exps())
    return MonomialIdeal(a.ring, meet)


def localized_symbolic_power(
    kind: FiltrationKind, a: MonomialIdeal, k: int
) -> MonomialIdeal:
    """The k-th symbolic power of a proper nonzero ideal by the definition
    the library replaced: a^k localized at each inclusion-maximal
    associated (or minimal) prime of a, the results intersected.  The
    oracle for the corner filter of ``filtrations.filtration_member``."""
    primes = associated_primes(a) if kind is FiltrationKind.SYMBOLIC_ASS else minimal_primes(a)
    maximal = [p for p in primes
               if not any(q is not p and set(p.indices) <= set(q.indices) for q in primes)]
    return intersect_all((localize(power(a, k), p) for p in maximal), a.ring)


def scan_chars(text: str):
    """The session scanner as a character loop: yields (kind, text, line,
    col) tokens, ending with ("eof", "", line, col), and raises ParseError
    at the first character no token starts with.  A nat is a run of
    str.isdigit characters, so it may hold digits int() refuses."""
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            yield ("name", text[start:i], line, start_col)
            continue
        if ch.isdigit():
            start, start_col = i, col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            yield ("nat", text[start:i], line, start_col)
            continue
        if ch in "=[](),;^*-":
            yield (ch, ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("eof", "", line, col)


# The session scanner before tokens were built in one comprehension: one
# group per token class, so a match with no group set is whitespace or a
# comment, and the token loop branches on the group.
_GROUP_SCANNER = re.compile(
    r"""
      \s+                       # whitespace: no token
    | \#[^\n]*                  # comment: no token
    | (?P<nat> \d+ )
    | (?P<name> \w+ )
    | (?P<punct> [=\[\](),;^*-] )
    | (?P<other> . )
    """,
    re.VERBOSE,
)


def branching_tokens(text: str) -> list[tuple[str, str]]:
    """The oracle for ``parser._tokenize``: the (kind, text) tokens of
    text, ending with ("eof", ""), by a loop that branches on each
    match's group, raising ParseError at the first character outside the
    grammar or at a name that starts with neither a letter nor "_"."""
    tokens: list[tuple[str, str]] = []
    for nat, name, punct, other in _GROUP_SCANNER.findall(text):
        if punct:
            tokens.append((punct, punct))
        elif name:
            if not (name[0].isalpha() or name[0] == "_"):
                raise ParseError(f"unexpected character {name[0]!r}",
                                 *group_position(text, len(tokens)))
            tokens.append(("name", name))
        elif nat:
            tokens.append(("nat", nat))
        elif other:
            raise ParseError(f"unexpected character {other!r}",
                             *group_position(text, len(tokens)))
    tokens.append(("eof", ""))
    return tokens


def group_position(text: str, index: int) -> tuple[int, int]:
    """The (line, col) where token index of ``branching_tokens(text)``
    starts, by scanning the text again.  Past the last token is the end
    of input: the end of the last line, or where a comment on it starts."""
    starts = [m.start() for m in _GROUP_SCANNER.finditer(text) if m.lastindex]
    if index < len(starts):
        start = starts[index]
    else:
        start = text.find("#", text.rfind("\n") + 1)
        if start < 0:
            start = len(text)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _DescentParser:
    """The session parser before a token was its own text: recursive
    descent over (kind, text) tokens, here ``branching_tokens``, through
    peek/advance/expect/value.  self.pos is the index of the next token;
    a token is named by its index, and fail() turns one into a line:column
    position (``group_position``)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = branching_tokens(text)
        self.pos = 0
        self.rings: dict[str, Ring] = {}
        self.session = parser.Session()

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> int:
        """Consumes the next token; returns its index."""
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str, what: str) -> str:
        """Consumes the next token, which must be of this kind; returns its text."""
        found, text = self.tokens[self.pos]
        if found != kind:
            self.fail(f"expected {what}, found {text or 'end of input'!r}", self.pos)
        self.pos += 1
        return text

    def fail(self, message: str, at: int) -> NoReturn:
        raise ParseError(message, *group_position(self.text, at))

    def parse(self) -> parser.Session:
        while self.peek() != "eof":
            kind, text = self.tokens[self.pos]
            if kind != "name":
                self.fail(f"expected a statement, found {text!r}", self.pos)
            if text == "ring":
                self.ring_decl()
            elif text == "ideal":
                self.ideal_decl()
            else:
                self.command()
        return self.session

    def ring_decl(self):
        self.advance()  # ring
        name = self.expect("name", "a ring name")
        if name in self.rings:
            self.fail(f"ring {name!r} already declared", self.pos - 1)
        self.expect("=", "'='")
        self.expect("[", "'['")
        vars: list[str] = []
        while True:
            var = self.expect("name", "a variable name")
            if var in vars:
                self.fail(f"duplicate variable {var!r}", self.pos - 1)
            vars.append(var)
            at = self.advance()
            if self.tokens[at][0] == "]":
                break
            if self.tokens[at][0] != ",":
                self.fail("expected ',' or ']' in variable list", at)
        self.expect(";", "';'")
        self.rings[name] = Ring(name, tuple(vars))

    def ideal_decl(self):
        self.advance()  # ideal
        name = self.expect("name", "an ideal name")
        if name in self.session.ideals:
            self.fail(f"ideal {name!r} already declared", self.pos - 1)
        if self.expect("name", "'in'") != "in":
            self.fail("expected 'in' after the ideal name", self.pos - 1)
        ring_name = self.expect("name", "a ring name")
        ring = self.rings.get(ring_name)
        if ring is None:
            self.fail(f"unknown ring {ring_name!r}", self.pos - 1)
        self.expect("=", "'='")
        self.expect("(", "'('")
        exps: list[tuple[int, ...]] = []
        if self.peek() == ")":
            self.advance()
        else:
            while True:
                exps.append(self.mono_exp(ring))
                at = self.advance()
                if self.tokens[at][0] == ")":
                    break
                if self.tokens[at][0] != ",":
                    self.fail("expected ',' or ')' in generator list", at)
        self.expect(";", "';'")
        self.session.ideals[name] = from_exps(ring, exps)

    def mono_exp(self, ring: Ring) -> tuple[int, ...]:
        """mono := "1" | term ("*" term)*  with term := NAME ("^" NAT)?"""
        vec = [0] * ring.nvars
        kind, text = self.tokens[self.pos]
        if kind == "nat":
            if text != "1":
                self.fail("the only numeric monomial is 1 (write () for the zero ideal)", self.pos)
            self.advance()
            return tuple(vec)
        while True:
            var = self.expect("name", "a variable name")
            if var not in ring.vars:
                self.fail(f"variable {var!r} is not in ring {ring.name!r}", self.pos - 1)
            exp = 1
            if self.peek() == "^":
                self.advance()
                self.expect("nat", "an exponent")
                exp = self.nat(self.pos - 1)
            vec[ring.index(var)] += exp
            if self.peek() == "*":
                self.advance()
                continue
            return tuple(vec)

    def hyphenated(self, text: str, rest: str) -> str:
        """text, a name just read, joined with any following "-name"
        parts (verify-expansion, symb-ass); rest names a missing part."""
        while self.peek() == "-":
            self.advance()
            text += "-" + self.expect("name", rest)
        return text

    def value(self) -> tuple[int, str]:
        """A key=value right-hand side as (index, text): a nat, or a name
        that may be hyphenated (kind values)."""
        at = self.advance()
        kind, text = self.tokens[at]
        if kind == "nat":
            return at, text
        if kind != "name":
            self.fail(f"expected a value, found {text or 'end of input'!r}", at)
        return at, self.hyphenated(text, "the rest of the value")

    def command(self):
        head = self.pos
        name = self.hyphenated(self.expect("name", "a command"), "the rest of the command name")
        if name not in parser._SIGNATURES:
            self.fail(f"unknown command {name!r}", head)
        arity, required, defaults = parser._SIGNATURES[name]
        named: dict[str, tuple[int, str]] = {}
        ideals: list[str] = []
        mono_val: Monomial | None = None
        while self.peek() != ";":
            kind, text = self.tokens[self.pos]
            if kind == "eof":
                self.fail("unterminated command; expected ';'", self.pos)
            if kind == "name" and self.tokens[self.pos + 1][0] == "=":
                key = self.pos
                self.pos += 2  # the key and '='
                if text not in required and text not in defaults:
                    self.fail(f"command {name!r} takes no argument {text!r}", key)
                if text in named:
                    self.fail(f"duplicate argument {text!r}", key)
                named[text] = self.value()
                continue
            # Positional argument: an ideal name, or (for colon) a monomial.
            if name == "colon" and len(ideals) == 1 and mono_val is None:
                base_ring = self.session.ideals[ideals[0]].ring
                if (
                    kind == "name"
                    and text in self.session.ideals
                    and self.tokens[self.pos + 1][0] not in ("^", "*")
                ):
                    # A bare declared-ideal name means the ideal colon;
                    # anything else is a monomial in the first ideal's ring.
                    self.advance()
                    ideals.append(text)
                else:
                    mono_val = Monomial(base_ring, self.mono_exp(base_ring))
                continue
            if kind != "name" or len(ideals) >= arity:
                self.fail(f"unexpected argument {text!r} for command {name!r}", self.pos)
            at = self.advance()
            if text not in self.session.ideals:
                self.fail(f"unknown ideal {text!r}", at)
            ideals.append(text)
        self.advance()  # ';'
        if name == "colon":
            if not (len(ideals) == 2 or (len(ideals) == 1 and mono_val is not None)):
                self.fail("colon needs an ideal and a monomial (or a second ideal)", head)
        elif len(ideals) != arity:
            self.fail(
                f"command {name!r} needs {arity} ideal argument(s), got {len(ideals)}",
                head,
            )
        missing = sorted([key for key in required if key not in named])
        if missing:
            self.fail(
                f"command {name!r} is missing argument(s): {', '.join(missing)}",
                head,
            )
        filtration = None
        if "kind" in named:
            at, text = named["kind"]
            filtration = parser.KINDS.get(text)
            if filtration is None:
                self.fail(
                    f"unknown kind {text!r} (expected one of: {', '.join(sorted(parser.KINDS))})",
                    at,
                )
            if name == "symb" and filtration not in (
                FiltrationKind.SYMBOLIC_ASS,
                FiltrationKind.SYMBOLIC_MIN,
            ):
                self.fail("symb takes kind=symb-ass or kind=symb-min", at)
        k = self.nat_arg(named, "k", defaults)
        cap = self.nat_arg(named, "cap", defaults)
        self.session.commands.append(parser.Command(name, tuple(ideals), mono_val, filtration, k, cap))

    def nat_arg(
        self, named: dict[str, tuple[int, str]], key: str, defaults: dict[str, int]
    ) -> int | None:
        """The value given for key, else its default (None if it has none)."""
        if key not in named:
            return defaults.get(key)
        at = named[key][0]
        if self.tokens[at][0] != "nat":
            self.fail(f"argument {key} must be a natural number", at)
        return self.nat(at)

    def nat(self, at: int) -> int:
        """The value of nat token at.  Its text is decimal digits, so int()
        fails only past the interpreter's limit on digits in a conversion."""
        text = self.tokens[at][1]
        try:
            return int(text)
        except ValueError:
            self.fail(f"number too long ({len(text)} digits)", at)


def descent_parse_session(text: str) -> parser.Session:
    """The oracle for ``parser.parse_session``: the replaced descent."""
    return _DescentParser(text).parse()


# The words a mutation inserts: the session vocabulary, a comment, line
# breaks, non-decimal digits, a non-ASCII letter and a decimal digit of
# another script, a character outside the grammar and a long number.
MUTATION_WORDS = (
    "ring ideal in A B I J K x y z = [ ] ( ) , ; ^ * - 0 1 2 3 10 k kind cap ordinary "
    "symb-ass symb-min intclos colon vnum power ntf mingens irrdec verify-theorem "
    "check-property # \u00b2 \u00bd \u0663 \u00e9 ! 99999999999999999999"
).split(" ") + ["\n", " "]


def mutate_session(rng: random.Random, text: str) -> str:
    """text with one to three edits to its pieces (words, runs of
    whitespace, comments and single characters): delete, repeat, swap,
    replace or insert one, the new ones drawn from ``MUTATION_WORDS``."""
    pieces = re.findall(r"\s+|#[^\n]*|\w+|.", text, re.S)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(pieces) + 1)
        edit = rng.randrange(5)
        if edit == 0 and at < len(pieces):
            del pieces[at]
        elif edit == 1 and at < len(pieces):
            pieces.insert(at, pieces[at])
        elif edit == 2 and pieces:
            other = rng.randrange(len(pieces))
            at = min(at, len(pieces) - 1)
            pieces[at], pieces[other] = pieces[other], pieces[at]
        elif edit == 3 and at < len(pieces):
            pieces[at] = rng.choice(MUTATION_WORDS)
        else:
            pieces.insert(at, rng.choice(MUTATION_WORDS))
    return "".join(pieces)
