"""Random rings, ideals and ideal pairs for the CLI's ``--fuzz`` sweeps
and for property tests.

All sampling goes through an explicit random.Random so identical seeds
reproduce identical instances everywhere (CLI fuzz mode, tests).  Draws
kept only when the ideal has a property, such as the normally
torsion-free pairs of the integral-closure tests, are made by the tests
(``tests/oracles.py``).
"""

import random

from .ideals import MonomialIdeal, from_exps
from .rings import Ring, make_ring


def random_ring(rng: random.Random, name: str, var_prefix: str, max_vars: int = 3) -> Ring:
    t = rng.randint(1, max_vars)
    return make_ring(name, [f"{var_prefix}{i + 1}" for i in range(t)])


def random_ideal(
    rng: random.Random,
    ring: Ring,
    max_gens: int = 4,
    max_exp: int = 2,
    squarefree: bool = False,
) -> MonomialIdeal:
    """A random proper nonzero monomial ideal (every generator has
    positive degree, so minimalization cannot produce the unit ideal)."""
    cap = 1 if squarefree else max_exp
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(count):
        while True:
            exp = tuple(rng.randint(0, cap) for _ in range(ring.nvars))
            if any(exp):
                gens.append(exp)
                break
    return from_exps(ring, gens)


def random_pair(
    rng: random.Random,
    max_vars: int = 3,
    max_gens: int = 4,
    max_exp: int = 2,
) -> tuple[MonomialIdeal, MonomialIdeal]:
    ring_a = random_ring(rng, "A", "x", max_vars)
    ring_b = random_ring(rng, "B", "y", max_vars)
    i = random_ideal(rng, ring_a, max_gens, max_exp)
    j = random_ideal(rng, ring_b, max_gens, max_exp)
    return i, j
