"""Local and global v-numbers of monomial ideals, with witnesses.

The fast path searches candidates among the minimal generators of
L : p.  That set always contains a minimum-degree witness: any witness f
(a monomial with L : f = p) lies in L : p, so some minimal generator g
of L : p divides f; then p ⊆ L : g (g multiplies p into L) and
L : g ⊆ L : f = p (g divides f), so g is itself a witness of degree at
most deg f.  The optional per-call verification re-derives the answer
with the brute-force oracle and falls back to it on any disagreement.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import ImproperIdealError, NoWitnessError
from .ideals import MonomialIdeal, PrimeSupport, colon_monomial, minimal_exps
from .rings import Monomial, check_same_ring, lcm_exp, monomials_up_to_degree, quot_exp

CANDIDATE_GENERATOR = "candidate-generator"
BRUTE_FORCE = "brute-force"


@dataclass(frozen=True, slots=True)
class VReport:
    """Result of a v-number query: witness degree, the witness monomial,
    and the prime it cuts out."""

    degree: int
    witness: Monomial
    prime: PrimeSupport
    method: str


def brute_force_local_v(
    a: MonomialIdeal, p: PrimeSupport, deg_cap: int
) -> VReport | None:
    """First monomial f (increasing canonical order, degree <= deg_cap)
    with a : f = p, or None if there is none within the cap."""
    check_same_ring(a, p)
    target = p.as_ideal()
    for f in monomials_up_to_degree(a.ring, deg_cap):
        if colon_monomial(a, f) == target:
            return VReport(f.degree, f, p, BRUTE_FORCE)
    return None


@lru_cache(maxsize=16384)
def _candidate_local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    # a : p and the test a : f == p on raw exponent tuples.  a : x_i is
    # a + (u / x_i : x_i divides u in G(a)), and monomial ideals form a
    # distributive lattice, so a : p is a plus the intersection of the parts.
    gens = a.exps()
    target = p.as_ideal().exps()
    shared = None
    for i, x in zip(p.indices, target):
        b = minimal_exps(quot_exp(u, x) for u in gens if u[i])
        shared = b if shared is None else minimal_exps(lcm_exp(u, v) for u in shared for v in b)
    # Candidates come out canonically sorted, so the first survivor is the
    # minimum-degree witness with canonical tie-breaking.
    for f in minimal_exps(gens + shared):
        if minimal_exps(quot_exp(u, f) for u in gens) == target:
            return VReport(sum(f), Monomial(a.ring, f), p, CANDIDATE_GENERATOR)
    raise NoWitnessError(
        f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
    )


def local_v(a: MonomialIdeal, p: PrimeSupport, verify: bool = False) -> VReport:
    """The local v-number of a at p: the least degree of a monomial f with
    a : f = p, together with such a witness.

    Raises NoWitnessError when p is not an associated prime of a.  With
    verify=True the candidate answer is checked against the brute-force
    oracle capped at the candidate degree; on disagreement the oracle's
    answer is returned (method "brute-force").
    """
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    check_same_ring(a, p)
    report = _candidate_local_v(a, p)
    if verify:
        oracle = brute_force_local_v(a, p, report.degree)
        if oracle is None or oracle.degree != report.degree:
            return oracle if oracle is not None else report
    return report


def v_number(a: MonomialIdeal, verify: bool = False) -> VReport:
    """The v-number of a: the minimum of local_v over all associated
    primes, ties broken by the smallest prime in canonical order."""
    from .decomposition import associated_primes

    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    # Ass of a proper nonzero ideal is non-empty.
    return min(
        (local_v(a, p, verify=verify) for p in associated_primes(a)),
        key=lambda report: (report.degree, report.prime.indices),
    )
