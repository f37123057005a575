"""Exact monomial-ideal algebra with v-numbers and filtration
expansion checks.

Everything is field-free combinatorics on exponent vectors: colon
ideals, irreducible decomposition, associated and minimal primes,
ordinary and symbolic powers, integral closures via the Newton
polyhedron, local and global v-numbers, and a verifier for the
binomial-expansion min-formula relating the v-function of a sum of
ideals in disjoint variables to the v-functions of the summands.
"""

from types import ModuleType as _ModuleType

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
)
from .vnumbers import VReport, local_v, v_number

# The imported objects only: importing from a submodule also binds the
# submodule's name here, and `from videal import *` should not bind it.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
