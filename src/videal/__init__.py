"""Exact monomial-ideal algebra with v-numbers and filtration
expansion checks.

Everything is field-free combinatorics on exponent vectors: colon
ideals, irreducible decomposition, associated and minimal primes,
ordinary and symbolic powers, integral closures via the Newton
polyhedron, local and global v-numbers, and a verifier for the
binomial-expansion min-formula relating the v-function of a sum of
ideals in disjoint variables to the v-functions of the summands.
"""

from .decomposition import (
    IrreducibleComponent,
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import (
    ImproperIdealError,
    InternalError,
    NoWitnessError,
    ParseError,
    RingMismatchError,
    VidealError,
)
from .expansion import (
    ExpansionReport,
    RhsCandidate,
    RhsResult,
    TheoremReport,
    TheoremRow,
    direct_term,
    join_ideals,
    verify_expansion,
    verify_theorem,
)
from .filtrations import (
    FiltrationKind,
    PropertyCheckReport,
    check_filtration_property,
    filtration_member,
    integral_closure,
    normally_torsion_free,
)
from .ideals import (
    MonomialIdeal,
    PrimeSupport,
    as_prime,
    colon_ideal,
    colon_monomial,
    ideal,
    intersect,
    is_squarefree,
    power,
    prime_support,
    product,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from .lp import NewtonMembership, newton_member
from .rings import (
    Monomial,
    Ring,
    join_rings,
    make_ring,
    mono,
    monomials_of_degree,
    monomials_up_to_degree,
)
from .vnumbers import VReport, local_v, v_number

__all__ = [name for name in dir() if not name.startswith("_")]
