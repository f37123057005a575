"""Irreducible decomposition, associated primes, and minimal primes.

An irreducible monomial ideal is stored as a corner vector b, standing
for (x_i^{b_i} : b_i < top), where the integer top exceeds every input
exponent and means "no generator in x_i".  A monomial m lies in the
component of b iff m_i >= b_i for some i, and the component of b lies
inside that of c iff c <= b componentwise.

One sweep serves both directions of Alexander duality (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 5).  ``_intersect_corners`` meets
components one at a time with the running intersection, starting from
the unit ideal.  For a corner b, a generator u of the running
intersection that lies in the component of b stays; any other u is
replaced by u with u_i raised to b_i, for each i with b_i < top (the lcms
of u with the component's generators).  A kept u is minimal in the new
intersection, since anything there dividing it is a multiple of a
generator dividing u, so only the raised vectors are minimalized, by a
degree-order sweep against the vectors kept so far; the result is the
antichain of minimal generators.  It runs on packed exponent vectors,
one lane per coordinate with a guard bit, so that no borrow crosses a
lane and each comparison of two vectors is one subtraction and one mask
(Bachmann-Schoenemann, ISSAC 1998).  ``_corners`` runs the same sweep
on reflected vectors, e -> top - e, one subtraction each.  Adding a
generator m to an ideal keeps each corner b with b_i <= m_i for some i,
and replaces any other b by b with b_i lowered to m_i, for each i in
supp(m).  Reflected, b_i <= m_i reads (top - m)_i <= (top - b)_i,
lowering b_i to m_i reads raising (top - b)_i to (top - m)_i, and the
zero ideal's corner (top, ..., top) reads (0, ..., 0): so the corners of
a are the reflections of the minimal generators of the meet of the
components whose corners are the reflected generators of a.  Minimal
there is maximal here: no corner lies below another, so no component
contains another.  That is irredundancy: an irreducible monomial ideal Q is
intersection-prime, since if no component lies in Q, one monomial per
component outside Q has an lcm in the intersection whose exponents on
supp(Q) stay below Q's.  The irredundant decomposition is unique, so
generator order does not matter.  Neither direction sorts its result:
the corners stay in sweep order, the intersect-back check compares sets,
and only ``_components_inside``, which builds an ideal from a meet,
sorts it canonically.

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
hitting problem.  It is solved on integer bitmasks over the corner list,
built once per table (``_corner_masks``): with f = b0 - 1 on P and 0
outside, f lies outside Q_b iff b_P >= b0_P, so the hard set is an AND
of per-coordinate masks less the compatible corners (``_hard_mask``).
A branch and bound carries the mask of the corners not yet met, and
raising g_j to b_j clears the corners with b_j <= g_j < top from it in
one operation (``_raise_search``).  With a single corner, or when P is
every variable, the hard set is empty and no mask is built.  The
least-degree witness that is first in the canonical order (graded, then
lexicographically greatest) is certified twice on G(a): by the colon
rule, then by membership.

Two memos hold the work per ideal, and both store only immutable
values.  ``_corner_set`` keeps the whole corner set of a as one value:
a bytes object holding each corner, packed as the sweep returns it, in
a fixed-width little-endian record, then each corner's support as a bit
mask in records of its own, together with top and the count.  The
intersect-back check meets the sweep's ints before they are stored, and
compares the meet, as a set, with G(a) packed once.  Readers slice the
records back into ints (``_read``), in time linear in the value's size:
the symbolic powers' filter ``_components_inside`` reads the supports,
and the corners only when it drops some, to meet the kept ones;
``_witnesses`` and ``irreducible_decomposition`` unpack the corners to
tuples, for one build.  Every ideal's corners, a symbolic member's
included, come from the sweep, and are checked by the sweep the other
way: they must intersect back to a.  The witness table ``_witnesses``
runs the search on those corners once, and stores one finished
``VReport`` per associated prime.  Every witness is certified when the
table is built, whichever reader comes first, on G(a) and the witness
packed on the corners' lanes: by the colon rule (``_colon_prime``,
which reads the quotients u / gcd(u, f) with a few integer operations
per generator, and is also the per-monomial test of the bounded
``filtrations.check_filtration_property``), then by membership, which
asks only whether monomials lie in a: x_i f does for every i in P, and
f with every coordinate outside P set to top - 1 does not.  A witness
has every coordinate at most top - 1, so x_i f stays within the lanes.
Neither certificate builds the colon ideal.  ``associated_primes``,
``vnumbers.local_v``, ``vnumbers.v_number`` and ``expansion`` only read
the stored reports.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ImproperIdealError, InternalError
from .ideals import MonomialIdeal, PrimeSupport
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


def _pack(vectors: Iterable[Sequence[int]], width: int) -> list[int]:
    """Each vector as one int, coordinate i in the lane at shift i * width."""
    packed = []
    for b in vectors:
        # A plain loop: a call or a comprehension per vector costs more.
        v = 0
        for e in reversed(b):
            v = v << width | e
        packed.append(v)
    return packed


def _unpack(packed: Iterable[int], n: int, width: int) -> list[tuple[int, ...]]:
    """The n coordinates of each packed vector, as a tuple."""
    lane = (1 << width) - 1
    shifts = range(0, n * width, width)
    return [tuple([v >> s & lane for s in shifts]) for v in packed]


def _guard(n: int, width: int) -> int:
    """The guard bits of n lanes of width bits: the high bit of each."""
    return ((1 << n * width) - 1) // ((1 << width) - 1) << (width - 1)


def _intersect_corners(corners: Sequence[int], top: int, n: int, reflect: bool = False) -> list[int]:
    """Minimal generators of the intersection of the components of the
    given packed corners of n coordinates (every entry at most top), in
    sweep order.  With reflect, each given vector v stands for the corner
    top - v, and each generator u is returned as top - u.

    A vector packs into one int, coordinate i in the lane of W =
    top.bit_length() + 1 bits at shift i * W, whose high bit is a guard
    bit (``_pack``); G is the mask of the guard bits.  Every lane value is
    at most top < 2^(W - 1), so in (u | G) - b lane i holds u_i + 2^(W -
    1) - b_i, which lies in [1, 2^W): no borrow crosses a lane, and the
    guard bit survives iff b_i <= u_i.  So "some b_i <= u_i" is ((u | G) -
    b) & G != 0, "m divides e" is ((e | G) - m) & G == G, and raising lane
    i to b_i is (u & ~lane_i) | (b_i << i * W).  The same holds for any
    vector whose entries are at most top: so the witness certificates
    (``_colon_prime`` and ``_membership_certifies``) read witnesses f on
    these lanes, whose entries are at most top - 1 (below b0_i on P, at
    most some finite b_j outside P), and x_i f on them too.  A vector of
    the meet also carries its degree in the bits above the lanes, which no
    guard test reads, so its int sorts by degree first; the degree is
    cleared on the way out.  ``ideals.minimal_exps`` keeps its own sweep
    on tuples: it sees each vector once, so packing costs it more than it
    saves.
    """
    width = top.bit_length() + 1
    lane = (1 << width) - 1
    # The lanes fill the bits below high, and the degree sits above them.
    high = n * width
    shifts = range(0, high, width)
    guard = _guard(n, width)
    if reflect:
        full = (guard >> width - 1) * top
        corners = [full - v for v in corners]
    meet = [0]
    for b in corners:
        # Exponents of the meet stay below top, so b_i <= u_i needs b_i < top.
        powers = [(s, ~(lane << s), e << s, e) for s in shifts if (e := b >> s & lane) < top]
        kept = []
        raised = set()
        for u in meet:
            if ((u | guard) - b) & guard:
                kept.append(u)
            else:
                # u is outside the component, so u_i < b_i: the degree grows.
                for s, clear, put, e in powers:
                    raised.add((u & clear | put) + (e - (u >> s & lane) << high))
        # A raised vector is a multiple of a vector of the antichain meet, so
        # it never properly divides a kept one.  A vector is divisible only by
        # vectors of no greater degree, and two distinct vectors of equal
        # degree never divide each other, so in degree order only the vectors
        # kept before a candidate can divide it.  A divisor packs to no
        # greater int: a cheap pre-test.
        for v in sorted(raised):
            test = v | guard
            for m in kept:
                if m <= v and (test - m) & guard == guard:
                    break
            else:
                kept.append(v)
        meet = kept
    lanes = (1 << high) - 1
    if reflect:
        return [full - (u & lanes) for u in meet]
    return [u & lanes for u in meet]


def _corners(gens: Sequence[int], top: int, n: int) -> list[int]:
    """The packed corners of the irredundant irreducible decomposition of
    the ideal generated by the packed vectors gens of n coordinates (every
    exponent below top), in sweep order: the reflections of the minimal
    generators of the intersection of the components whose corners are
    the reflected generators."""
    return _intersect_corners(gens, top, n, reflect=True)


def _record_sizes(n: int, top: int) -> tuple[int, int]:
    """The bytes that ``_corner_set`` gives one packed corner of n
    coordinates on lanes of top.bit_length() + 1 bits, and one support."""
    return (n * (top.bit_length() + 1) + 7) // 8, (n + 7) // 8


def _read(data: bytes, start: int, count: int, size: int) -> list[int]:
    """The count ints of size little-endian bytes each that data holds
    from byte start on: one slice each, so reading is linear in size."""
    from_bytes = int.from_bytes
    return [from_bytes(data[o:o + size], "little") for o in range(start, start + count * size, size)]


@lru_cache(maxsize=16384)
def _corner_set(a: MonomialIdeal) -> tuple[bytes, int, int]:
    """The corners of the irredundant irreducible decomposition of a,
    checked exactly to intersect back to a, as one value (data, top,
    count): data holds the count packed corners in sweep order, then
    the support of each as a bit mask (bit i set iff b_i < top), in
    fixed-width little-endian records of ``_record_sizes`` bytes."""
    _require_proper_nonzero(a)
    gens = a.exps()
    n = len(gens[0])
    top = max(map(max, gens)) + 1
    width = top.bit_length() + 1
    packed = _pack(gens, width)
    corners = _corners(packed, top, n)
    lane = (1 << width) - 1
    shifts = range(0, n * width, width)
    # A plain loop: a call or a comprehension per corner costs more.
    supports = []
    for b in corners:
        mask, bit = 0, 1
        for s in shifts:
            if b >> s & lane < top:
                mask |= bit
            bit <<= 1
        supports.append(mask)
    # Both sides are duplicate-free antichains, so equal sets are equal ideals.
    if set(_intersect_corners(corners, top, n)) != set(packed):
        raise InternalError(f"irreducible decomposition of {a} does not intersect back")
    size, mask_size = _record_sizes(n, top)
    records = [b.to_bytes(size, "little") for b in corners]
    records += [s.to_bytes(mask_size, "little") for s in supports]
    return b"".join(records), top, len(corners)


def _components_inside(a: MonomialIdeal, primes: Iterable[PrimeSupport]) -> MonomialIdeal:
    """The intersection of the components of a with support in one of the
    primes (one at least), from the memoized corners; a if all are kept.
    The corners themselves are read only when some are dropped."""
    data, top, count = _corner_set(a)
    n = a.ring.nvars
    size, mask_size = _record_sizes(n, top)
    supports = _read(data, count * size, count, mask_size)
    masks = [sum([1 << i for i in p.indices]) for p in primes]
    # A support that is a prime's own mask is kept with no scan.
    dropped = {s for s in set(supports).difference(masks) if not any(s | m == m for m in masks)}
    if not dropped:
        return a
    corners = _read(data, 0, count, size)
    meet = _intersect_corners([b for b, s in zip(corners, supports) if s not in dropped], top, n)
    exps = _unpack(meet, n, top.bit_length() + 1)
    canonical_sort(exps)
    return MonomialIdeal(a.ring, tuple(exps))


def irreducible_decomposition(a: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant set of irreducible components intersecting to a,
    read from the memoized corners, which were checked exactly to
    intersect back to a when first computed."""
    data, top, count = _corner_set(a)
    n = a.ring.nvars
    corners = _read(data, 0, count, _record_sizes(n, top)[0])
    # The component of b is generated by the pure powers x_i^{b_i}, b_i < top,
    # an antichain.  In the canonical order x_i^e precedes x_j^f exactly
    # when (e, i) < (f, j), so the sorted pairs (b_i, i) list the
    # component's generators canonically, and compared as lists they
    # order the components as their canonical generator lists would.
    components = []
    for powers in sorted(sorted((e, i) for i, e in enumerate(b) if e < top)
                         for b in _unpack(corners, n, top.bit_length() + 1)):
        exps = tuple((0,) * i + (e,) + (0,) * (n - i - 1) for e, i in powers)
        prime = PrimeSupport(a.ring, tuple(sorted(i for _, i in powers)))
        components.append(IrreducibleComponent(MonomialIdeal(a.ring, exps), prime))
    return tuple(components)


def _colon_prime(gens: Sequence[int], f: int, guard: int) -> int:
    """The guard bits of the lanes of P, for the prime p with support P
    and a : f = p, where gens packs G(a) and f packs f on the lanes whose
    guard bits are guard (``_intersect_corners``); 0 if a : f is not a
    monomial prime.

    a : f is generated by the quotients u / gcd(u, f), u in G(a).  Let H
    be the set of i for which x_i is itself a quotient.  Then a : f = p
    iff H is the support of p: a minimal generator x_i of p is a quotient,
    and a quotient x_i lies in p.  So a : f is a prime exactly when H is
    non-empty and every quotient has a positive exponent on some x_i with
    i in H.  A quotient of 1 means f lies in a, and a : f is the whole ring.

    On lanes, D = (f | G) - u keeps the guard bit of lane i iff u_i <=
    f_i, so over = G & ~D marks the variables of the quotient of u.  A
    single bit of over, at lane i, is x_i itself iff u_i = f_i + 1: then
    adding 1 to lane i of D, which holds 2^(W - 1) - (u_i - f_i), sets its
    guard bit.  The lanes stay apart while every lane of f is at most top
    (``_intersect_corners``).  A coordinate of f at or above top may be
    given as top - 1: no exponent of G(a) reaches top, so u_i > f_i and
    u_i = f_i + 1 fail for either value.
    """
    shift = (guard & -guard).bit_length() - 1
    test = f | guard
    hit = 0
    others = []
    for u in gens:
        d = test - u
        over = guard & ~d
        if not over:
            return 0
        if over & (over - 1) or not (d + (over >> shift)) & over:
            others.append(over)
        else:
            hit |= over
    for over in others:
        if not over & hit:
            return 0
    return hit


def _membership_certifies(gens: Sequence[int], f: int, hit: int, guard: int, top: int) -> bool:
    """Whether a : f = p, for the packed G(a) = gens and f, and p the
    prime on the lanes whose guard bits are hit, by membership in a alone.

    p lies in a : f iff x_i f lies in a for every i in P.  The monomials
    outside p are those in the variables outside P, so a : f lies in p
    iff no multiple of f by such a monomial lies in a, that is, iff f
    with every coordinate outside P set to top - 1 lies outside a (top
    exceeds every exponent of G(a)).  Both tests are divisibility by a
    generator, one guard test each.  Every lane of a witness is at most
    top - 1 (below b0_i on P, and at most some finite b_j outside P), so
    x_i f stays at most top < 2^(W - 1) and its lanes stay apart.
    """
    shift = (guard & -guard).bit_length() - 1
    # The low bit of each lane of P, and every bit of those lanes.
    ones = hit >> shift
    inside = (hit << 1) - ones
    test = f & inside | ((guard >> shift) - ones) * (top - 1) | guard
    for u in gens:
        if (test - u) & guard == guard:
            return False
    while ones:
        low = ones & -ones
        test = (f + low) | guard
        for u in gens:
            if (test - u) & guard == guard:
                break
        else:
            return False
        ones ^= low
    return True


def _corner_masks(
    corners: Sequence[tuple[int, ...]], top: int
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Bitmasks over the corners, bit r standing for corners[r]: for each
    coordinate i and each value v that some b_i takes, ge[i][v] marks the
    corners with b_i >= v, and le[i][v] those with b_i <= v and b_i < top
    (so le[i][top], when some b_i is top, marks every finite b_i)."""
    full = (1 << len(corners)) - 1
    ge, le = [], []
    for column in zip(*corners):
        at: dict[int, int] = {}
        bit = 1
        for v in column:
            at[v] = at.get(v, 0) | bit
            bit <<= 1
        above, below = {}, {}
        mask = 0
        for v in sorted(at):
            above[v] = full ^ mask
            if v < top:
                mask |= at[v]
            below[v] = mask
        ge.append(above)
        le.append(below)
    return ge, le


def _hard_mask(
    ge: list[dict[int, int]], le: list[dict[int, int]], b0: tuple[int, ...], indices: tuple[int, ...]
) -> int:
    """The mask of the corners b that f = b0 - 1 on P lies outside
    (b_P >= b0_P) and that are not compatible with b0 (b_P != b0_P)."""
    above = below = -1
    for i in indices:
        above &= ge[i][b0[i]]
        below &= le[i][b0[i]]
    return above & ~below


def _raise_search(
    hard: int, corners: Sequence[tuple[int, ...]], top: int, le: list[dict[int, int]],
    outside: list[int], limit: int | None,
) -> tuple[int, tuple[int, ...]] | None:
    """The least degree of a raise g of the coordinates outside P (listed
    in outside) that meets every corner b in the mask hard (g_j >= b_j < top
    for some j in outside), and the lexicographically greatest such g of
    that degree, as a vector with 0 on P; None if there is none of degree
    at most limit.

    Branch and bound on the mask of the corners not yet met: raising g_j
    to b_j meets le[j][b_j], and raises above the best degree so far are
    pruned.  A node branches on a corner with no finite entry outside P
    if there is one (a dead end), else on one with a single such entry (a
    forced raise), else on the first.  Every minimum-degree raise g* is
    reached whatever corner a node branches on: each g*_j is some b_j
    (else lowering it would meet the same corners), and below g* some
    g*_j >= b_j > g_j meets the branched corner b, so raising g_j to
    exactly b_j stays below g*.  So the leaf rule below keeps the
    lexicographically greatest of them.
    """
    best = dead_or_forced = None
    stack = [(hard, (0,) * len(corners[0]), 0)]
    while stack:
        unmet, g, degree = stack.pop()
        if limit is not None and degree > limit:
            continue
        if not unmet:
            if best is None or degree < limit or g > best[1]:
                limit, best = degree, (degree, g)
        elif limit is None or degree < limit:
            low = unmet & -unmet
            if low != unmet:
                if dead_or_forced is None:
                    # The corners with no finite entry outside P, then those with one.
                    some = more = 0
                    for j in outside:
                        finite = le[j].get(top, -1)
                        more |= some & finite
                        some |= finite
                    dead_or_forced = (~some, some & ~more)
                for mask in dead_or_forced:
                    if unmet & mask:
                        low = unmet & mask & -(unmet & mask)
                        break
            b = corners[low.bit_length() - 1]
            for j in outside:
                # b is not met, so b_j > g_j: each raise adds at least one degree.
                e = b[j]
                if e < top and (limit is None or degree + e - g[j] <= limit):
                    stack.append((unmet & ~le[j][e], g[:j] + (e,) + g[j + 1:], degree + e - g[j]))
    return best


@lru_cache(maxsize=16384)
def _witnesses(a: MonomialIdeal) -> Mapping[tuple[int, ...], VReport]:
    """The witness table of a: for each associated prime p, keyed by its
    support P (in increasing order), the report of the least degree of an
    f with a : f = p and the first such f in the canonical order.

    The corners are read from ``_corner_set``, unpacked for this build
    only, and grouped by their memoized supports.  Each f is searched
    over the corners b0 with support P in increasing degree, as in the
    module docstring: the hard set of b0 is one mask, and its least raise
    comes from the branch and bound on masks.  The masks live only while
    the table is built.  Each f found is packed on the corners' lanes,
    with G(a), then checked by the colon rule and certified by membership
    (a failure is an internal error).  Every caller gets the same
    read-only view.
    """
    data, top, count = _corner_set(a)
    gens = a.exps()
    n = len(gens[0])
    width = top.bit_length() + 1
    size, mask_size = _record_sizes(n, top)
    corners = _unpack(_read(data, 0, count, size), n, width)
    supports = _read(data, count * size, count, mask_size)
    by_support: dict[int, list[tuple[int, ...]]] = {}
    for b, s in zip(corners, supports):
        by_support.setdefault(s, []).append(b)
    masks = None
    found = []
    for indices, group in sorted(
        (tuple([i for i in range(n) if s >> i & 1]), group) for s, group in by_support.items()
    ):
        # f = b0 - shift is b0 - 1 on P and 0 outside P.
        shift = [top] * n
        for i in indices:
            shift[i] = 1
        outside = [j for j, e in enumerate(shift) if e == top]
        best_degree = None
        best = None
        for b0 in sorted(group, key=sum):
            f = tuple(map(sub, b0, shift))
            degree = sum(f)
            if best_degree is not None and degree > best_degree:
                break
            # The hard set is empty for a single corner, and when P is every
            # variable: then b_P >= b0_P means b >= b0, and the corners are an
            # antichain.
            hard = 0
            if len(corners) > 1 and outside:
                masks = masks or _corner_masks(corners, top)
                hard = _hard_mask(*masks, b0, indices)
            if hard:
                rest = _raise_search(hard, corners, top, masks[1], outside,
                                     None if best_degree is None else best_degree - degree)
                if rest is None:
                    continue
                degree += rest[0]
                f = tuple(map(add, f, rest[1]))
            if best_degree is None or degree < best_degree or f > best:
                best_degree, best = degree, f
        p = PrimeSupport(a.ring, indices)
        if best is None:
            raise InternalError(f"no colon witness for {p} in Ass({a})")
        found.append((p, best_degree, best))
    guard = _guard(n, width)
    packed = _pack(gens, width)
    table = {}
    for (p, degree, f), v in zip(found, _pack([f for _, _, f in found], width)):
        # The guard bits of the lanes of P: the colon rule's answer on f.
        hit = sum([1 << i * width for i in p.indices]) << width - 1
        if _colon_prime(packed, v, guard) != hit:
            raise InternalError(f"no colon witness for {p} in Ass({a})")
        if not _membership_certifies(packed, v, hit, guard, top):
            raise InternalError(f"witness certification failed for {p} in Ass({a})")
        table[p.indices] = VReport(degree, Monomial(a.ring, f), p)
    return MappingProxyType(table)


@lru_cache(maxsize=16384)
def associated_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Ass(a): the radicals of the irredundant irreducible components,
    read from the witness table, where each is certified."""
    return tuple(report.prime for report in _witnesses(a).values())


def minimal_primes(a: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Min(a): the inclusion-minimal associated primes, in the order of
    Ass(a).  A prime is dropped when another one's support, as a bit mask,
    is a proper subset of its own."""
    primes = associated_primes(a)
    masks = [sum([1 << i for i in p.indices]) for p in primes]
    return tuple([p for p, m in zip(primes, masks) if not any([q & m == q != m for q in masks])])
