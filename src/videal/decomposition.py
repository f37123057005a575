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
on reflected vectors, e -> top - e, one subtraction each, and reflects
the meet back: its docstring shows why that gives the corners, and why
no component contains another.  The irredundant decomposition is
unique, so generator order does not matter, and the corners are stored
in sweep order.  Corner order moves a meet's cost, not its result: the
intersect-back check and ``_components_inside`` meet in decreasing
packed order, where the check on (I+J)^6 for the seed-16 4+4 pair of
``randgen.random_ideal(rng, ring, 8, 3)`` raises 20,664 vectors to
minimalize, not 61,855 (0.46 s, not 1.89 s); the corner step is slower
in that order.  The check compares sets, and only ``_components_inside``
builds an ideal from a meet, through ``ideals.from_exps``.

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
built once per table (``_corner_masks``): with f0 = b0 - 1 on P and 0
outside, f0 lies outside Q_b iff b_P >= b0_P, so the hard set of b0 is
an AND of per-coordinate masks less the compatible corners.  One branch
and bound per support starts from every P-primary corner b0 under one
degree bound, each root carrying the hard set of b0; a node carries the
mask of the corners not yet met, and raising g_j to b_j clears the
corners with b_j <= g_j < top from it in one operation
(``_raise_search``).  Its leaf rule keeps the least-degree witness that
is first in the canonical order (graded, then lexicographically
greatest), which is certified twice on G(a): by the colon rule, then by
membership.

One memo, ``_decomposition``, holds the work per ideal, and it stores
only immutable values, built in one call: the corners from the sweep,
checked by the sweep the other way (the intersect-back check meets the
sweep's ints before they are stored, and compares the meet, as a set,
with G(a) packed once); the witness table, searched on the sweep's
corners grouped by support (the i with b_i < top), one entry per
support, so its keys are Ass(a) and the only record of the supports
(each entry's prime and witness come from the intern ``ideals._shared``,
as do the components' radicals, and its key is that prime's indices, so
the tables share one object per support and per witness);
its least entry (least degree, then smallest support); and one bytes
value holding each corner, packed as the sweep returns it, in a
fixed-width little-endian record, with top beside it.  Every ideal's
corners, a symbolic member's included, come from the sweep.  Readers
slice the records back into ints (``_read``), in time linear in the
value's size: the symbolic powers' filter ``_components_inside`` decides
from the keys which supports the kept primes drop, and reads the corners
only when some are dropped, to meet the others; ``_corner_tuples``
unpacks the corners to tuples, for ``irreducible_decomposition`` and for
``_is_closed``, the closed-power test that ``filtrations.integral_closure``
hands its certified facets to, one ``lp._first_violated`` per corner.  No
other module reads the records or top.  The table stores one finished
``VReport`` per associated prime, each witness certified as the table is
built, whichever reader comes first, on G(a) and the witness packed on
the corners' lanes: by the colon rule (``_colon_prime``, which reads the
quotients u / gcd(u, f) with a few integer operations per generator),
then by membership, which asks only whether monomials lie in a: x_i f
does for every i in P, and f with every coordinate outside P set to
top - 1 does not.  A witness has every coordinate at most top - 1, so
x_i f stays within the lanes.  Neither certificate builds the colon
ideal.
``associated_primes``, ``vnumbers.local_v`` and ``expansion`` read the
table through ``_witnesses``, and ``vnumbers.v_number`` and both of
``expansion``'s global values, the direct side's and the formula's, read
the least entry through ``_least``.

Packed lanes are this module's alone.  The bounded
``filtrations.check_filtration_property`` enumerates monomials and hands
them to ``_colon_witnesses``, which packs them and runs the same colon
rule on each.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ImproperIdealError, InternalError
from .ideals import MonomialIdeal, PrimeSupport, _shared, from_exps
from .lp import Facet, _first_violated
from .rings import Monomial


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


def _intersect_corners(corners: Sequence[int], top: int, n: int) -> list[int]:
    """Minimal generators of the intersection of the components of the
    given packed corners of n coordinates (every entry at most top), in
    sweep order.

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
    return [u & lanes for u in meet]


def _corners(gens: Sequence[int], top: int, n: int) -> list[int]:
    """The packed corners of the irredundant irreducible decomposition of
    the ideal generated by the packed vectors gens of n coordinates (every
    exponent below top), in sweep order: the reflections of the minimal
    generators of the intersection of the components whose corners are
    the reflected generators, v -> top - v, one subtraction each.

    Adding a generator m to an ideal keeps each corner b with b_i <= m_i
    for some i, and replaces any other b by b with b_i lowered to m_i,
    for each i in supp(m).  Reflected, b_i <= m_i reads (top - m)_i <=
    (top - b)_i, lowering b_i to m_i reads raising (top - b)_i to (top -
    m)_i, and the zero ideal's corner (top, ..., top) reads (0, ..., 0):
    the step of ``_intersect_corners`` on the reflections.  Minimal there
    is maximal here: no corner lies below another, so no component
    contains another.  That is irredundancy: an irreducible monomial
    ideal Q is intersection-prime, since if no component lies in Q, one
    monomial per component outside Q has an lcm in the intersection
    whose exponents on supp(Q) stay below Q's.
    """
    full = (_guard(n, top.bit_length() + 1) >> top.bit_length()) * top
    return [full - u for u in _intersect_corners([full - v for v in gens], top, n)]


def _record_size(n: int, top: int) -> int:
    """The bytes that ``_decomposition`` gives one packed corner of n
    coordinates on lanes of top.bit_length() + 1 bits."""
    return (n * (top.bit_length() + 1) + 7) // 8


def _read(data: bytes, size: int) -> list[int]:
    """The ints of size little-endian bytes each that data holds: one
    slice each, so reading is linear in len(data)."""
    from_bytes = int.from_bytes
    return [from_bytes(data[o:o + size], "little") for o in range(0, len(data), size)]


@lru_cache(maxsize=16384)
def _decomposition(a: MonomialIdeal) -> tuple[bytes, int, Mapping[tuple, VReport], VReport]:
    """The decomposition of a as (data, top, table, least): data holds
    the packed corners of the irredundant irreducible decomposition in
    sweep order, checked exactly to intersect back to a, in records of
    ``_record_size`` bytes; table is a's ``_witness_table``, whose keys
    are the distinct supports of the corners; least is the table's entry
    of least degree, ties broken by the smallest support."""
    _require_proper_nonzero(a)
    gens = a.exps()
    n = len(gens[0])
    top = max(map(max, gens)) + 1
    width = top.bit_length() + 1
    packed = _pack(gens, width)
    corners = _corners(packed, top, n)
    # Both sides are duplicate-free antichains, so equal sets are equal ideals.
    if set(_intersect_corners(sorted(corners, reverse=True), top, n)) != set(packed):
        raise InternalError(f"irreducible decomposition of {a} does not intersect back")
    table = _witness_table(a, packed, _unpack(corners, n, width), top)
    least = min(table.values(), key=lambda report: (report.degree, report.prime.indices))
    size = _record_size(n, top)
    return b"".join([b.to_bytes(size, "little") for b in corners]), top, table, least


def _witnesses(a: MonomialIdeal) -> Mapping[tuple[int, ...], VReport]:
    """The read-only witness table of a, from its memoized decomposition."""
    return _decomposition(a)[2]


def _least(a: MonomialIdeal) -> VReport:
    """The least entry of a's witness table, from its memoized decomposition."""
    return _decomposition(a)[3]


def _components_inside(a: MonomialIdeal, primes: Iterable[PrimeSupport]) -> MonomialIdeal:
    """The intersection of the components of a with support in one of the
    primes (one at least), from the memoized corners; a if all are kept.

    The keys of a's witness table decide which supports are dropped.
    ``_witness_table`` makes one entry per support of a corner, each
    certified, so the keys are the distinct supports of a's irredundant
    components: Ass(a).  A key that is one of the primes' own supports
    is kept; any other is dropped iff it lies inside no prime.  With none
    dropped the meet is a, and no record is read.  Else the corners are
    read, and a corner b is dropped iff its support is.  The lanes off its
    support are those with b_i = top, and a support and its lanes off it
    determine each other; ((b | G) - tops) & G keeps the guard bits of
    exactly those lanes, for G the guard bits and tops the vector with
    top in every lane, since every b_i is at most top
    (``_intersect_corners``).  The kept corners are met.
    """
    data, top, table, _ = _decomposition(a)
    kept = {p.indices for p in primes}
    # A plain loop: a comprehension or a set difference costs more.
    dropped = []
    for indices in table:
        if indices not in kept and not any(map(set(indices).issubset, kept)):
            dropped.append(indices)
    if not dropped:
        return a
    n = a.ring.nvars
    width = top.bit_length() + 1
    guard = _guard(n, width)
    tops = (guard >> width - 1) * top
    # Each dropped support, as the guard bits of the lanes off it.
    off = {guard - (sum([1 << i * width for i in indices]) << width - 1) for indices in dropped}
    corners = [
        b for b in _read(data, _record_size(n, top)) if ((b | guard) - tops) & guard not in off
    ]
    meet = _intersect_corners(sorted(corners, reverse=True), top, n)
    return from_exps(a.ring, _unpack(meet, n, width))


def _corner_tuples(a: MonomialIdeal) -> tuple[int, list[tuple[int, ...]]]:
    """top and the memoized corners of a, checked to intersect back to a,
    as exponent tuples in sweep order (b_i = top where the component has
    no generator in x_i).  The one reader that turns the packed records
    into tuples."""
    data, top, _, _ = _decomposition(a)
    n = a.ring.nvars
    return top, _unpack(_read(data, _record_size(n, top)), n, top.bit_length() + 1)


def _is_closed(a: MonomialIdeal, facets: Sequence[Facet]) -> bool:
    """Whether a holds every lattice point u >= 0 of the nonempty facet
    inequalities w.u >= d (integer w >= 0): whether every corner b of a,
    with support P, has a facet that fails at u = b - 1 on P and M off
    P, M the largest d (proof in the ``filtrations`` module docstring).
    """
    top, corners = _corner_tuples(a)
    far = max([d for _, d in facets])
    return all(_first_violated(facets, [e - 1 if e < top else far for e in b]) for b in corners)


def irreducible_decomposition(a: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant set of irreducible components intersecting to a,
    read from the memoized corners, which were checked exactly to
    intersect back to a when first computed."""
    top, corners = _corner_tuples(a)
    n = a.ring.nvars
    # The component of b is generated by the pure powers x_i^{b_i}, b_i < top.
    # In the canonical order x_i^e precedes x_j^f exactly when (e, i) < (f, j),
    # so the sorted pairs (b_i, i), compared as lists, order the components
    # as their canonical generator lists would.
    components = []
    for powers in sorted(sorted((e, i) for i, e in enumerate(b) if e < top) for b in corners):
        exps = [(0,) * i + (e,) + (0,) * (n - i - 1) for e, i in powers]
        prime = _shared(PrimeSupport, a.ring, tuple(sorted(i for _, i in powers)))
        components.append(IrreducibleComponent(from_exps(a.ring, exps), prime))
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


def _colon_witnesses(
    gens: Sequence[tuple[int, ...]], vectors: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each f of vectors, in their order, for which a : f is a monomial
    prime, for G(a) = gens, with that prime's support in increasing order:
    the colon rule (``_colon_prime``) on every f, without building a colon
    ideal.

    The rule runs on packed lanes over the coordinates where some
    generator is positive: a quotient u / gcd(u, f) has no other
    variable, so f's other coordinates cannot change it.  A coordinate of
    f at or above top, one more than the largest exponent of gens, is
    packed as top - 1.  No generator exponent reaches top, so neither test
    of the rule changes (u_i > f_i, and u_i = f_i + 1), and every lane
    stays at most top.
    """
    support = [i for i, column in enumerate(zip(*gens)) if any(column)]
    top = max(map(max, gens)) + 1
    width = top.bit_length() + 1
    guard = _guard(len(support), width)
    packed = _pack([[u[i] for i in support] for u in gens], width)
    lanes = {1 << j * width + width - 1: i for j, i in enumerate(support)}
    backwards = support[::-1]
    for f in vectors:
        # A plain loop: a call per vector costs more.
        v = 0
        for i in backwards:
            e = f[i]
            v = v << width | (e if e < top else top - 1)
        hit = _colon_prime(packed, v, guard)
        if hit:
            yield f, tuple([i for bit, i in lanes.items() if hit & bit])


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


def _raise_search(
    roots: list[tuple[int, tuple[int, ...], int]], corners: Sequence[tuple[int, ...]], top: int,
    le: list[dict[int, int]], outside: list[int],
) -> tuple[int, tuple[int, ...]] | None:
    """The least degree of a witness f for the prime with support P, and
    the lexicographically greatest f of that degree; None if there is
    none.  Each root (hard, f0, deg f0), greatest degree first, stands
    for a corner b0 with support P: f0 is b0 - 1 on P and 0 outside P,
    and hard masks the corners that f0 lies outside and that are not
    compatible with b0.  A witness from b0 is f0 plus a raise of the
    coordinates outside P (listed in outside) that meets every corner b
    of hard: g_j >= b_j < top for some j in outside.

    Branch and bound on the mask of the corners not yet met, from every
    root at once, the least degree first: raising g_j to b_j meets
    le[j][b_j], and raises above the best degree so far are pruned.  No
    raise goes past top - 1, so the bound starts at the greatest root
    degree plus top - 1 per coordinate outside P.  A node branches on a
    corner with no finite entry outside P if there is one (a dead end),
    else on one with a single such entry (a forced raise), else on the
    first.  Every least-degree witness f* is reached: its values on P
    name its root b0, each f*_j outside P is some b_j (else lowering it
    would meet the same corners), and below f* some f*_j >= b_j > g_j
    meets the branched corner b, so raising g_j to exactly b_j stays
    below f*.  So the leaf rule below keeps the lexicographically
    greatest of them.
    """
    # The corners with no finite entry outside P, then those with one.
    some = more = 0
    for j in outside:
        finite = le[j].get(top, -1)
        more |= some & finite
        some |= finite
    dead_or_forced = (~some, some & ~more)
    limit = roots[0][2] + (top - 1) * len(outside)
    best = None
    stack = list(roots)
    while stack:
        unmet, g, degree = stack.pop()
        if degree > limit:
            continue
        if not unmet:
            if best is None or degree < limit or g > best[1]:
                limit, best = degree, (degree, g)
        elif degree < limit:
            low = unmet & -unmet
            if low != unmet:
                for mask in dead_or_forced:
                    if unmet & mask:
                        low = unmet & mask & -(unmet & mask)
                        break
            b = corners[low.bit_length() - 1]
            for j in outside:
                # b is not met, so b_j > g_j: each raise adds at least one degree.
                e = b[j]
                if e < top and degree + e - g[j] <= limit:
                    stack.append((unmet & ~le[j][e], g[:j] + (e,) + g[j + 1:], degree + e - g[j]))
    return best


def _witness_table(
    a: MonomialIdeal, gens: Sequence[int], corners: Sequence[tuple[int, ...]], top: int
) -> Mapping[tuple[int, ...], VReport]:
    """The witness table of a: for each associated prime p, keyed by its
    support P (in increasing order), the report of the least degree of an
    f with a : f = p and the first such f in the canonical order.

    gens packs G(a) on the lanes of top (``_intersect_corners``), and the
    corners come as tuples, in sweep order; they are grouped by support,
    the indices i with b_i < top, which the keys are the only record of.
    Each f is found by one branch and bound per support, rooted at every
    corner b0 with support P, as in the module docstring: with f0 = b0 -
    1 on P and 0 outside, the root's hard set is the AND over P of the
    corners with b_i >= b0_i, less the compatible ones, those with b_i <=
    b0_i on P (``_raise_search``).  The masks live only while the table
    is built.
    Each f found is packed on the same lanes, then checked by the colon
    rule and certified by membership (a failure is an internal error).
    Every caller gets the same read-only view.
    """
    n = len(corners[0])
    width = top.bit_length() + 1
    ge, le = _corner_masks(corners, top)
    by_support: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for b in corners:
        by_support.setdefault(tuple([i for i, e in enumerate(b) if e < top]), []).append(b)
    found = []
    for indices, group in sorted(by_support.items()):
        roots = []
        for b0 in group:
            above = below = -1
            for i in indices:
                above &= ge[i][b0[i]]
                below &= le[i][b0[i]]
            f = tuple([e - 1 if e < top else 0 for e in b0])
            roots.append((above & ~below, f, sum(f)))
        roots.sort(key=lambda root: root[2], reverse=True)
        outside = [j for j, e in enumerate(group[0]) if e == top]
        p = _shared(PrimeSupport, a.ring, indices)
        best = _raise_search(roots, corners, top, le, outside)
        if best is None:
            raise InternalError(f"witness search found no f for {p} in Ass({a})")
        found.append((p, *best))
    guard = _guard(n, width)
    table = {}
    for (p, degree, f), v in zip(found, _pack([f for _, _, f in found], width)):
        # The guard bits of the lanes of P: the colon rule's answer on f.
        hit = sum([1 << i * width for i in p.indices]) << width - 1
        if _colon_prime(gens, v, guard) != hit:
            raise InternalError(f"no colon witness for {p} in Ass({a})")
        if not _membership_certifies(gens, v, hit, guard, top):
            raise InternalError(f"witness certification failed for {p} in Ass({a})")
        table[p.indices] = VReport(degree, _shared(Monomial, a.ring, f), p)
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
