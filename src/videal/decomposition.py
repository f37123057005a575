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

Both sweeps run once per ideal, in the memoized private step
``_corner_set``, which returns the checked corners, top and each
corner's support.  Three readers share it: ``irreducible_decomposition``
builds component ideals from the corners, ``associated_primes`` reads
the primes off the supports without building any component, and
``vnumbers.local_v`` searches its witnesses on the corners.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import le
from typing import Iterable

from .errors import ImproperIdealError, InternalError, NoWitnessError
from .ideals import MonomialIdeal, PrimeSupport, _sweep_into, colon_monomial
from .rings import canonical_sort


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


def _intersect_corners(corners: list[tuple[int, ...]], top: int) -> tuple[tuple[int, ...], ...]:
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
def _corner_set(
    a: MonomialIdeal,
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[tuple[int, ...], ...]]:
    """The corners of the irredundant irreducible decomposition of a, their
    sentinel top, and the support of each corner (the increasing indices
    i with b_i < top), checked exactly to intersect back to a.

    This is the one decomposition step: ``irreducible_decomposition``,
    ``associated_primes`` and ``vnumbers.local_v`` all read it.
    """
    _require_proper_nonzero(a)
    gens = a.exps()
    top = max(map(max, gens)) + 1
    corners = _corners(gens, top)
    if _intersect_corners(corners, top) != gens:
        raise InternalError(f"irreducible decomposition of {a} does not intersect back")
    # Corners of one support share one tuple (an ideal has few supports):
    # unshared tuples raised peak RSS by 0.3-0.5 MB on the benchmark plans.
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    supports = []
    for b in corners:
        s = tuple(i for i, e in enumerate(b) if e < top)
        supports.append(shared.setdefault(s, s))
    return tuple(corners), top, tuple(supports)


def irreducible_decomposition(a: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant set of irreducible components intersecting to a.

    The intersection equality is checked exactly, once per ideal.
    """
    corners, top, _ = _corner_set(a)
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


@lru_cache(maxsize=16384)
def associated_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Ass(a): the radicals of the irredundant irreducible components,
    read from the supports of their corners.

    Every returned prime is certified by exhibiting a monomial f with
    a : f = p; failure to certify is an internal error (it would mean the
    decomposition and the colon characterization disagree).
    """
    from .vnumbers import local_v  # deferred: vnumbers imports this module

    supports = sorted(set(_corner_set(a)[2]))
    primes = tuple(PrimeSupport(a.ring, indices) for indices in supports)
    for p in primes:
        try:
            report = local_v(a, p)
        except NoWitnessError as exc:
            raise InternalError(f"no colon witness for {p} in Ass({a})") from exc
        if colon_monomial(a, report.witness) != p.as_ideal():
            raise InternalError(f"witness certification failed for {p} in Ass({a})")
    return primes


def minimal_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Min(a): the inclusion-minimal associated primes."""
    primes = associated_primes(a)
    return tuple(
        p
        for p in primes
        if not any(q is not p and p.contains_prime(q) for q in primes)
    )
