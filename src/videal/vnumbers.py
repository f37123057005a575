"""Local and global v-numbers of monomial ideals, with witnesses.

Both are lookups in the witness table of ``decomposition``, which reads
the least-degree colon witness of every associated prime off the
irreducible decomposition of the ideal, once per ideal, and re-checks
each one by the colon rule (the argument is in the ``decomposition``
docstring).
"""

from dataclasses import dataclass

from .decomposition import _witnesses
from .errors import ImproperIdealError, NoWitnessError
from .ideals import MonomialIdeal, PrimeSupport
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


def local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    """The local v-number of a at p: the least degree of a monomial f with
    a : f = p, together with such a witness (the first in canonical order).

    Raises NoWitnessError when p is not an associated prime of a.
    """
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    check_same_ring(a, p)
    found = _witnesses(a).get(p.indices)
    if found is None:
        raise NoWitnessError(
            f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
        )
    return VReport(found[0], found[1], p, CANDIDATE_GENERATOR)


def v_number(a: MonomialIdeal) -> VReport:
    """The v-number of a: the minimum of local_v over all associated
    primes, ties broken by the smallest prime in canonical order."""
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    # Ass of a proper nonzero ideal is non-empty.
    table = _witnesses(a)
    indices = min(table, key=lambda s: (table[s][0], s))
    degree, witness = table[indices]
    return VReport(degree, witness, PrimeSupport(a.ring, indices), CANDIDATE_GENERATOR)
