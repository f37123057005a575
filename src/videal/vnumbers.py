"""Local and global v-numbers of monomial ideals, with witnesses.

local_v searches for witnesses among the minimal generators of
L : p.  That set always contains a minimum-degree witness: any witness f
(a monomial with L : f = p) lies in L : p, so some minimal generator g
of L : p divides f; then p ⊆ L : g (g multiplies p into L) and
L : g ⊆ L : f = p (g divides f), so g is itself a witness of degree at
most deg f.  A candidate is tested on exponent tuples, in one pass over
G(L), without building the colon ideal.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import ImproperIdealError, NoWitnessError
from .ideals import MonomialIdeal, PrimeSupport, intersect_exps
from .rings import Monomial, check_same_ring

CANDIDATE_GENERATOR = "candidate-generator"


@dataclass(frozen=True, slots=True)
class VReport:
    """Result of a v-number query: witness degree, the witness monomial,
    and the prime it cuts out."""

    degree: int
    witness: Monomial
    prime: PrimeSupport
    method: str


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


@lru_cache(maxsize=16384)
def local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    """The local v-number of a at p: the least degree of a monomial f with
    a : f = p, together with such a witness.

    Raises NoWitnessError when p is not an associated prime of a.
    """
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
            return VReport(sum(f), Monomial(a.ring, f), p, CANDIDATE_GENERATOR)
    raise NoWitnessError(
        f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
    )


def v_number(a: MonomialIdeal) -> VReport:
    """The v-number of a: the minimum of local_v over all associated
    primes, ties broken by the smallest prime in canonical order."""
    from .decomposition import associated_primes

    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    # Ass of a proper nonzero ideal is non-empty.
    return min(
        (local_v(a, p) for p in associated_primes(a)),
        key=lambda report: (report.degree, report.prime.indices),
    )
