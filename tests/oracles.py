"""Reference implementations used only by tests.

Each oracle answers by direct enumeration of the defining condition, or
by an older algorithm the library replaced, so it shares no code path
with the operation it cross-checks.  A few helpers the tests build
instances with live here too, since the library never needs them:
``mul``, ``embed``, ``localize`` and ``random_ntf_pair``.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from numbers import Rational
from operator import le, lt, sub
from operator import mul as times
from typing import Iterable, Sequence

from videal.decomposition import _colon_is_prime, _corner_set, associated_primes, minimal_primes
from videal.errors import ImproperIdealError, InternalError, NoWitnessError, ParseError
from videal.expansion import RhsCandidate, RhsResult
from videal.filtrations import FiltrationKind, filtration_member, normally_torsion_free
from videal.ideals import (
    MonomialIdeal,
    PrimeSupport,
    as_prime,
    colon_monomial,
    from_exps,
    intersect_all,
    intersect_exps,
    power,
    sum_ideals,
    unit_ideal,
)
from videal.randgen import random_pair
from videal.rings import (
    Monomial,
    Ring,
    check_same_ring,
    divides_exp,
    monomials_up_to_degree,
    mul_exp,
)
from videal.vnumbers import VReport, local_v


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
        i, j = random_pair(rng, max_vars, max_gens, max_exp, squarefree_first=True)
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


def scale_exp(u: tuple[int, ...], m: int) -> tuple[int, ...]:
    return tuple(e * m for e in u)


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
    replaced: it builds G(a : p) and returns its first member f (in
    canonical order) with a : f = p, or raises NoWitnessError."""
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
        shared = intersect_exps(shared, part)
    support = set(p.indices)
    # G(a : p) lies in G(a) ∪ shared, and members of a fail the test, so
    # the candidates are shared.  It is canonically sorted, so the first
    # survivor is the minimum-degree witness with canonical tie-breaking.
    for f in shared:
        if _colon_is_prime(gens, f, support):
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
    corners, top, _ = _corner_set(a)
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
    candidates = []
    for d in range(k):
        left = filtration_member(kind, i, k - d)
        right = filtration_member(kind, j, d + 1)
        if p not in associated_primes(left) or q not in associated_primes(right):
            continue
        vi = local_v(left, p)
        vj = local_v(right, q)
        candidates.append(RhsCandidate(d, vi.degree + vj.degree, vi.witness, vj.witness))
    if not candidates:
        return None
    value = min(c.value for c in candidates)
    achieved = tuple(c.d for c in candidates if c.value == value)
    return RhsResult(value, achieved, tuple(candidates))


def power_membership_oracle(a: Sequence[int], l: MonomialIdeal, m_max: int) -> bool:
    """True iff (x^a)^m lies in l^m for some m <= m_max.

    Conservative cross-check for Newton membership: False only means "not
    found up to m_max".
    """
    exp = tuple(a)
    for m in range(1, m_max + 1):
        if power(l, m).contains(Monomial(l.ring, scale_exp(exp, m))):
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
    maximal = [p for p in primes if not any(q is not p and q.contains_prime(p) for q in primes)]
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
