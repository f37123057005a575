"""Local and global v-numbers of monomial ideals, with witnesses.

Both return reports stored in the witness table of ``decomposition``
(re-exported here with ``VReport``), which reads the least-degree colon
witness of every associated prime off the irreducible decomposition of
the ideal, once per ideal, and certifies each one when the table is
built, whichever reader comes first.
"""

from .decomposition import VReport, _least, _witnesses
from .errors import ImproperIdealError, NoWitnessError
from .ideals import MonomialIdeal, PrimeSupport
from .rings import check_same_ring


def local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    """The local v-number of a at p: the least degree of a monomial f with
    a : f = p, together with such a witness (the first in canonical order).

    Raises NoWitnessError when p is not an associated prime of a.
    """
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    check_same_ring(a, p)
    report = _witnesses(a).get(p.indices)
    if report is None:
        raise NoWitnessError(
            f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
        )
    return report


def v_number(a: MonomialIdeal) -> VReport:
    """The v-number of a: the minimum of local_v over all associated
    primes, ties broken by the smallest prime in canonical order."""
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    return _least(a)
