"""Local and global v-numbers of monomial ideals, with witnesses.

local_v reads its witnesses off the irredundant irreducible
decomposition of L, computed once per ideal (``decomposition``), and
builds no colon ideal.  L is the intersection of its components Q_b,
stored as corners b (Q_b is generated by the x_i^{b_i} with b_i < top),
and Q_b : f is the whole ring when f lies in Q_b, else the irreducible
ideal with corner b - f.  So L : f is an intersection of irreducible
ideals, and it equals the prime p, with support P, iff one of them is p
and all of them contain p:
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
lexicographically greatest) is re-checked by the colon rule on G(L).
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import le, lt, sub

from .decomposition import _corner_set, _keep_maximal, associated_primes
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
    if not outside:
        return None
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
def local_v(a: MonomialIdeal, p: PrimeSupport) -> VReport:
    """The local v-number of a at p: the least degree of a monomial f with
    a : f = p, together with such a witness.

    Raises NoWitnessError when p is not an associated prime of a.
    """
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    check_same_ring(a, p)
    # The module docstring gives the corner argument: for each corner b0
    # with support P (least degree first), f = b0 - 1 on P and 0 outside,
    # and the corners of (c) that f misses are left to the raise.
    corners, top, supports = _corner_set(a)
    indices = p.indices
    firsts = sorted((b for b, s in zip(corners, supports) if s == indices), key=sum)
    # f = b0 - shift is b0 - 1 on P and 0 outside P.
    shift = [top] * len(corners[0])
    for i in indices:
        shift[i] = 1
    outside = [j for j, e in enumerate(shift) if e == top]
    best_degree = None
    best = None
    for b0 in firsts:
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
    # The pick is re-checked by the independent colon rule.
    if best is None or not _colon_is_prime(a.exps(), best, set(indices)):
        raise NoWitnessError(
            f"no monomial f satisfies {a} : f = {p}; the prime is not associated"
        )
    return VReport(best_degree, Monomial(a.ring, best), p, CANDIDATE_GENERATOR)


def v_number(a: MonomialIdeal) -> VReport:
    """The v-number of a: the minimum of local_v over all associated
    primes, ties broken by the smallest prime in canonical order."""
    if not a.is_proper_nonzero():
        raise ImproperIdealError("v-numbers are defined for proper nonzero ideals")
    # Ass of a proper nonzero ideal is non-empty.
    return min(
        (local_v(a, p) for p in associated_primes(a)),
        key=lambda report: (report.degree, report.prime.indices),
    )
