"""Irreducible decomposition, associated primes, and minimal primes.

An irreducible monomial ideal is stored as a corner vector b, standing
for (x_i^{b_i} : b_i < top), where the integer top exceeds every input
exponent and means "no generator in x_i".  A monomial m lies in the
component of b iff m_i >= b_i for some i, and the component of b lies
inside that of c iff c <= b componentwise.

Generators are added one at a time to the single corner (top, ..., top)
of the zero ideal.  A component Q that contains the new generator m
stays; otherwise Q + (m) is the intersection over i in supp(m) of
Q + (x_i^{m_i}), the corner with b_i lowered to m_i.  New corners that
another corner dominates componentwise are dropped, so the components
stay pairwise incomparable (a kept corner is never dominated by a new
one, which lies below some other old corner).  That is irredundancy: an
irreducible monomial ideal Q is intersection-prime, since if no
component lies in Q, one monomial per component outside Q has an lcm in
the intersection whose exponents on supp(Q) stay below Q's.  The
irredundant decomposition is unique, so generator order does not matter.

The intersect-back check runs the same sweep in the dual direction
(Alexander duality; Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 5): components are met one at a time with the running intersection,
starting from the unit ideal.  For a corner b, a generator u of the
running intersection that lies in the component of b stays; any other u
is replaced by u with u_i raised to b_i, for each i with b_i < top (the
lcms of u with the component's generators).  A kept u is minimal in the
new intersection, since anything there dividing it is a multiple of a
generator dividing u, so only the raised vectors are minimalized, by the
degree-order sweep of ``ideals._sweep_into`` against the vectors kept
so far.

Colon witnesses come from the same corners; no colon ideal is built.
For the component Q_b of corner b, Q_b : f is the whole ring when f lies
in Q_b, else the irreducible ideal with corner b - f.  So a : f is an
intersection of irreducible ideals, and it equals the prime p, with
support P, iff one of them is p and all of them contain p:
  (a) f_P = b0_P - 1 for some corner b0 with support P (then
      Q_b0 : f = p);
  (b) every corner b with f outside Q_b is compatible: b_P = b0_P;
  (c) so f lies in every other Q_b: f_i >= b_i for some i in P, or
      else for some j outside P.
(Jaramillo-Villarreal, JCTA 2021; Saha-Sengupta, J. Algebraic Combin.
2022.)  Given b0, only (c) constrains f outside P, and only from below,
so the least-degree witnesses are f_P = b0_P - 1 plus the least raises
of the coordinates outside P that meet every corner left by (c): a small
hitting problem, solved by branch and bound (``_least_raise``).  The
least-degree witness that is first in the canonical order (graded, then
lexicographically greatest) is re-checked by the colon rule on G(a).

Two memos hold the work per ideal, and both store only immutable
values.  ``_corner_set`` runs both sweeps once and keeps the checked
corners as a tuple; ``irreducible_decomposition`` and the symbolic
powers' filter ``_components_inside`` read them from there.  The
witness table ``_witnesses`` runs the search on those corners once, and
stores one finished ``VReport`` per associated prime.  Every witness is
certified when the table is built, whichever reader comes first: by the
colon rule on G(a), then by the colon ideal itself.
``associated_primes``, ``vnumbers.local_v``, ``vnumbers.v_number`` and
``expansion`` only read the stored reports.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import le, lt, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ImproperIdealError, InternalError
from .ideals import MonomialIdeal, PrimeSupport, _sweep_into, colon_monomial
from .rings import Monomial, canonical_sort


@dataclass(frozen=True, slots=True)
class VReport:
    """A v-number query's result: witness degree, witness, and its prime."""

    degree: int
    witness: Monomial
    prime: PrimeSupport


@dataclass(frozen=True, slots=True)
class IrreducibleComponent:
    """An irreducible monomial ideal (all generators pure variable powers)
    together with its radical prime."""

    ideal: MonomialIdeal
    prime: PrimeSupport


def _require_proper_nonzero(a: MonomialIdeal) -> None:
    if not a.is_proper_nonzero():
        kind = "zero" if a.is_zero() else "unit"
        raise ImproperIdealError(f"operation requires a proper nonzero ideal, got the {kind} ideal")


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


def _corners(gens: tuple[tuple[int, ...], ...], top: int) -> list[tuple[int, ...]]:
    """The corners of the irredundant irreducible decomposition of the
    ideal generated by gens (every exponent below top)."""
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
        # No new corner lies above a kept one (see the module docstring).
        _keep_maximal(kept, sorted(new, key=sum, reverse=True))
        corners = kept
    return corners


def _intersect_corners(corners: Sequence[tuple[int, ...]], top: int) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of the intersection of the components of the
    given corners, canonically sorted (every corner entry at most top)."""
    meet = [(0,) * len(corners[0])]
    for b in corners:
        kept = []
        raised = set()
        powers = [(i, e) for i, e in enumerate(b) if e < top]
        for u in meet:
            # Exponents of the meet stay below top, so b_i <= u_i needs b_i < top.
            if any(map(le, b, u)):
                kept.append(u)
            else:
                for i, e in powers:
                    raised.add(u[:i] + (e,) + u[i + 1:])
        # A raised vector is a multiple of a vector of the antichain meet,
        # so it never properly divides a kept one.
        _sweep_into(kept, sorted(raised, key=sum))
        meet = kept
    canonical_sort(meet)
    return tuple(meet)


@lru_cache(maxsize=16384)
def _corner_set(a: MonomialIdeal) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The corners of the irredundant irreducible decomposition of a and
    their sentinel top, checked exactly to intersect back to a."""
    _require_proper_nonzero(a)
    gens = a.exps()
    top = max(map(max, gens)) + 1
    corners = tuple(_corners(gens, top))
    if _intersect_corners(corners, top) != gens:
        raise InternalError(f"irreducible decomposition of {a} does not intersect back")
    return corners, top


def _components_inside(a: MonomialIdeal, primes: Iterable[PrimeSupport]) -> MonomialIdeal:
    """The intersection of the components of a with support in one of the
    primes (one at least), from the memoized corners; a if all are kept."""
    corners, top = _corner_set(a)
    primes = [set(p.indices) for p in primes]
    kept = [b for b in corners if any({i for i, e in enumerate(b) if e < top} <= p for p in primes)]
    return a if len(kept) == len(corners) else MonomialIdeal(a.ring, _intersect_corners(kept, top))


def irreducible_decomposition(a: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant set of irreducible components intersecting to a,
    read from the memoized corners, which were checked exactly to
    intersect back to a when first computed."""
    corners, top = _corner_set(a)
    n = a.ring.nvars
    # The component of b is generated by the pure powers x_i^{b_i}, b_i < top,
    # an antichain.  In the canonical order x_i^e precedes x_j^f exactly
    # when (e, i) < (f, j), so the sorted pairs (b_i, i) list the
    # component's generators canonically, and compared as lists they
    # order the components as their canonical generator lists would.
    components = []
    for powers in sorted(sorted((e, i) for i, e in enumerate(b) if e < top) for b in corners):
        exps = tuple((0,) * i + (e,) + (0,) * (n - i - 1) for e, i in powers)
        prime = PrimeSupport(a.ring, tuple(sorted(i for _, i in powers)))
        components.append(IrreducibleComponent(MonomialIdeal(a.ring, exps), prime))
    return tuple(components)


def _colon_is_prime(
    gens: tuple[tuple[int, ...], ...], f: tuple[int, ...], support: set[int]
) -> bool:
    """Whether a : f = p, for G(a) = gens and p = (x_i : i in support).

    a : f is generated by the quotients u / gcd(u, f), u in gens.  It lies
    in p iff every quotient has a positive exponent on some x_i of p.
    Then it contains p iff every x_i of p is itself a quotient: a quotient
    dividing x_i is 1 or x_i, and 1 does not lie in p.
    """
    hit = set()
    for u in gens:
        # The variables with a positive exponent in u / gcd(u, f).
        over = [i for i, e in enumerate(u) if e > f[i]]
        if support.isdisjoint(over):
            return False
        if len(over) == 1 and u[over[0]] == f[over[0]] + 1:
            hit.add(over[0])
    return len(hit) == len(support)


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


@lru_cache(maxsize=16384)
def _witnesses(a: MonomialIdeal) -> Mapping[tuple[int, ...], VReport]:
    """The witness table of a: for each associated prime p, keyed by its
    support P (in increasing order), the report of the least degree of an
    f with a : f = p and the first such f in the canonical order.

    The corners are read from ``_corner_set``, and each f is searched
    over the corners b0 with support P as in the module docstring, then
    checked by the colon rule and certified with the colon ideal (a
    failure is an internal error).  Every caller gets the same read-only
    view.
    """
    corners, top = _corner_set(a)
    by_support: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for b in corners:
        by_support.setdefault(tuple(i for i, e in enumerate(b) if e < top), []).append(b)
    gens = a.exps()
    table = {}
    for indices in sorted(by_support):
        # f = b0 - shift is b0 - 1 on P and 0 outside P.
        shift = [top] * len(gens[0])
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
            # Empty when P is every variable: then b >= b0, and the corners are an antichain.
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
        p = PrimeSupport(a.ring, indices)
        if best is None or not _colon_is_prime(gens, best, set(indices)):
            raise InternalError(f"no colon witness for {p} in Ass({a})")
        witness = Monomial(a.ring, best)
        if colon_monomial(a, witness) != p.as_ideal():
            raise InternalError(f"witness certification failed for {p} in Ass({a})")
        table[indices] = VReport(best_degree, witness, p)
    return MappingProxyType(table)


@lru_cache(maxsize=16384)
def associated_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Ass(a): the radicals of the irredundant irreducible components,
    read from the witness table, where each is certified."""
    return tuple(report.prime for report in _witnesses(a).values())


def minimal_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Min(a): the inclusion-minimal associated primes."""
    primes = associated_primes(a)
    return tuple(
        p
        for p in primes
        if not any(q is not p and p.contains_prime(q) for q in primes)
    )
