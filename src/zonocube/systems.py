"""Set-system avatars of cubillages.

A cubillage of Z(n,d) can be handed around as (a) the system of its vertex
spectra, (b) its natural order on the d-subsets, an admissible order
(order.AdmissibleOrder), or (c) its inversion system of (d+1)-subsets.
This module moves between all three and implements the completion/purity
searches on separated systems.

Dimension bookkeeping for inversions: the inversion system of a d-dimensional
cubillage consists of (d+1)-subsets (parents with antilexicographic packets);
consistent systems of d-subsets of [n] correspond to membranes of Z(n,d).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .colors import Colors, _blocks, _check_dimension, _check_weak_k, _codes, _encode
from .colors import _positions, _runs, _weak, colorset, subsets
from .cubillage import Cubillage, CubillageError, Facet, ScaleGuardError, _check_dimensions
from .cubillage import _coded, _spectrum_codes, _vertex_count
from .masks import _cubes, _cubillage_of_mask, _lift, _mask, _mask_of, _mask_of_spectra
from .masks import _sets, _steps
from .order import AdmissibleOrder, _chain_covers, natural_order


class NotRealizableError(CubillageError):
    """A set system that passes the size and separation checks of
    from_spectra and is still no cubillage's spectrum: its colors leave the
    universe."""


# the separation searches build a graph on the 2^n subsets of [n]
MAX_SEPARATION_N = 10


def _separation_scale_guard(n: int) -> None:
    if n > MAX_SEPARATION_N:
        raise ScaleGuardError(
            f"n = {n} exceeds the cap {MAX_SEPARATION_N} for searches over all subsets of [n]")


def _check_inside(members, n: int) -> None:
    outside = sorted(s for s in members if s and s[-1] > n)
    if outside:
        raise ValueError(f"member sets {outside} leave the colors 1..{n}")


def inversions(q: Cubillage) -> frozenset[Colors]:
    """Parents whose packet the cubillage orders antilexicographically.

    K is an inversion exactly when the cube typed K - max(K) sits behind the
    top-color layer of K, i.e. max(K) belongs to its root.  Empty for the
    standard cubillage, all of Gr(colors,d+1) for the antistandard one.
    Read off the mask of masks._mask_of, which certifies q (else
    CubillageError).
    """
    return frozenset(_sets(q.colors, q.d, _mask_of(q)))


def order_of(q: Cubillage) -> AdmissibleOrder:
    """The natural order of the cubillage on its cube types
    (order.natural_order), whose antilex packets are its inversions."""
    return natural_order(q)


def from_order(order: AdmissibleOrder) -> Cubillage:
    """Reconstruct the unique cubillage whose natural order the given
    admissible order extends.

    Its inversion mask is the order's _inv, the parents whose packet the
    order runs antilex; the root rule of the inversion masks builds the
    cubillage from that, and the order must hold the tunnel covers read off
    the rebuilt cubillage's roots (order._chain_covers), which generate its
    natural order: each is checked on the order's numbered up masks, and no
    order is closed.
    """
    cs, d = order.colors, order.d
    _check_dimensions(len(cs), d)
    q = _cubillage_of_mask(cs, d, order._inv)
    up = order._up
    if not all(up[a] >> b & 1 for a, b in _chain_covers(q)):
        raise CubillageError("reconstructed cubillage order is not refined by the input")
    return q


def is_consistent(sets, n: int) -> bool:
    """Whether the packet of every (d+1)-subset of [n] meets the system of
    d-subsets in a prefix or a suffix of its lex order, read off the packet
    table of the inversion masks.  All member sets must share one size;
    members outside [n] lie in no packet and are ignored."""
    members = {colorset(s) for s in sets}
    sizes = {len(s) for s in members}
    if len(sizes) > 1:
        raise ValueError(f"mixed member sizes {sorted(sizes)}")
    d = sizes.pop() if sizes else 1  # with no members any size will do
    return _steps(n, d - 1, _mask(tuple(range(1, n + 1)), d - 1, members.__contains__)) is not None


class MembraneWitness(NamedTuple):
    plates: frozenset[Facet]
    projected: Cubillage
    ambient: Cubillage
    stack: frozenset[Colors]


def from_consistent(sets, n: int, d: int) -> MembraneWitness:
    """Build the membrane of Z(n,d) whose inversion system is the given
    consistent family of d-subsets, cut from an ambient cubillage along the
    stack whose type set is the input.  For d > 1 the ambient is the
    canonical extension of the input (masks._lift): it inverts a parent K
    exactly when K - max K is not a member.  The plates are the cubes the
    root rule builds from the input one dimension down, as in
    order.membrane_of_stack: the projected membrane is the (d-1)-cubillage
    whose inversion system is the input.
    """
    _check_dimensions(n, d)
    members = frozenset(colorset(s) for s in sets)
    if any(len(s) != d for s in members):
        raise ValueError(f"members must be {d}-subsets")
    _check_inside(members, n)
    colors = tuple(range(1, n + 1))
    stack = _mask(colors, d - 1, members.__contains__)
    if _steps(n, d - 1, stack) is None:
        raise ValueError("system is not consistent")

    if d == 1:  # any chain will do: the one listing the members first
        inv = _mask(colors, 1, lambda k: (k[1],) in members and (k[0],) not in members)
    else:
        inv = _lift(colors, d, members)
    plates = _cubes(colors, d - 1, stack)
    projected = Cubillage._adopt(colors, d - 1, {t: r for r, t in plates}) if d > 1 else None
    return MembraneWitness(frozenset(itertools.starmap(Facet, plates)), projected,
                           _cubillage_of_mask(colors, d, inv), members)


def _check_separated(members, codes, r: int):
    """Refuse the first pair of members, in their listed order, whose codes
    are not r-separated; codes[i] codes members[i] by position in any color
    tuple that holds them all."""
    for (a, x), (b, y) in itertools.combinations(zip(members, codes), 2):
        if _blocks(x, y) > r + 1:
            raise ValueError(f"{a} and {b} are not {r}-separated")


def _spectrum_dimension(n: int, size: int) -> int | None:
    """The d with C(n,<=d) = size, or None: the walk stops once the count reaches size."""
    d = 0
    while d < n and _vertex_count(n, d) < size:
        d += 1
    return d if _vertex_count(n, d) == size else None


def from_spectra(sets, colors, d: int | None = None) -> Cubillage:
    """Reconstruct the cubillage whose vertex spectra are the given system.

    A system of size C(n,<=d) is the spectrum of a cubillage of Z(n,d)
    exactly when it is (d-1)-separated (Galashin 2018).  Its inversion mask
    is read off per-color member bitsets: a (d+1)-subset of the colors is
    an inversion when some member meets it in the one subset the standard
    cubillage's spectrum misses (masks._mask_of_spectra).  The cubillage
    the root rule builds from the mask is returned when its spectrum is
    the input, and this compare alone decides: it certifies every answer
    and refuses every other input, so the read need not check the input.
    The members are coded by position in the colors once; the mask is
    read from these codes and the certificate compares them with the
    rebuilt cubillage's spectrum codes (cubillage._spectrum_codes), so no
    spectrum is decoded.  Otherwise the pairwise separation (ValueError)
    and then the color universe (NotRealizableError) say what is wrong.  A
    repeated member counts once: the system is taken as a set.  A range of
    colors is sized against the system before its colors are listed.
    """
    cs = colors if isinstance(colors, range) else colorset(colors)
    members = {colorset(s) for s in sets}
    fit = _spectrum_dimension(len(cs), len(members))
    if d is None:
        if fit is None:
            raise ValueError(f"size {len(members)} is not C({len(cs)},<=d) for any d")
        d = fit
    _check_dimensions(len(cs), d)
    if fit != d:
        raise ValueError("system size is not C(n,<=d)")
    if isinstance(cs, range):
        cs = colorset(cs)
    index = {c: k for k, c in enumerate(cs)}
    try:
        codes = {_encode(s, index) for s in members}
    except KeyError:  # a color outside the universe, named below
        codes = None
    inv = None if codes is None else _mask_of_spectra(len(cs), d, codes)
    if inv is not None:
        q = _cubillage_of_mask(cs, d, inv)
        faces = [(r, t) for t, r in q._root_by_type.items()]
        if _spectrum_codes(_coded(faces, cs)) == codes:
            return q
    members = sorted(members)
    _check_separated(members, _codes(members), d - 1)
    if any(not set(s) <= set(cs) for s in members):
        raise NotRealizableError("spectra leave the color universe")
    # not reached by Galashin's theorem; kept so no input gets a wrong answer
    raise NotRealizableError("separated system of size C(n,<=d) is not a cubillage spectrum")


# ---------------------------------------------------------------------------
# clique machinery over bitmask adjacency


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        yield v


# the digits "0" and "1" as the bytes 0 and 1, which compress reads as false and true
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _relabel(adj: list[int], cand_mask: int, order: list[int]) -> list[int]:
    """Adjacency of the subgraph induced on cand_mask, vertex order[i] as i.
    Each row is the sum of the new bits that its binary digits, lowest
    first, pick out."""
    bit = [0] * len(adj)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return [sum(itertools.compress(bit, bin(adj[v] & cand_mask)[:1:-1].encode().translate(_DIGITS)))
            for v in order]


def _core_first(adj: list[int], cand_mask: int) -> list[int]:
    """The vertices of cand_mask in reverse min-degree removal order (ties
    to the lowest index): relabelled in this order, the high-core vertices
    get the low bits, which _beyond puts in the early classes.  Each step
    takes the degrees inside the vertices left as popcounts, one per vertex."""
    verts = list(_bits(cand_mask))
    order = []
    left = cand_mask
    while verts:
        degrees = [(adj[u] & left).bit_count() for u in verts]
        v = verts.pop(degrees.index(min(degrees)))
        order.append(v)
        left ^= 1 << v
    order.reverse()
    return order


def _complement(adj: list[int]) -> list[int]:
    """The complement rows of adj over all its vertices: non[v] holds the
    vertices other than v that are not adjacent to v.  Rows are positive
    ints, so an & with one copies neither operand; while v is outside a
    mask, mask & adj[v] is (mask & non[v]) ^ mask."""
    full = (1 << len(adj)) - 1
    return [full ^ (row | 1 << v) for v, row in enumerate(adj)]


def _beyond(non: list[int], mask: int, size: int) -> int:
    """The vertices of mask left after greedy coloring, lowest free bit
    first, builds size - 1 classes; non holds the complement rows
    (_complement), so a colored vertex takes itself and its neighbours out
    of its class in one &.  Each class is independent, so every clique of
    the given size inside mask meets the result, and 0 (the classes used up
    mask) means there is none."""
    while mask and size > 1:
        size -= 1
        avail = mask
        while avail:
            low = avail & -avail
            mask ^= low
            avail &= non[low.bit_length() - 1]
    return mask


def _count(non: list[int], mask: int, size: int, limit: int) -> int:
    """The number of cliques of exactly the given size inside mask, stopping
    at limit, on the complement rows non.  Each node branches on the
    vertices _beyond leaves, from the highest bit down, and drops each one
    before its branch; the last vertex of a clique is counted straight from
    the candidates."""
    if size <= 1:
        return min(mask.bit_count(), limit) if size else 1
    found = 0
    branch = _beyond(non, mask, size)
    while branch and found < limit:
        v = branch.bit_length() - 1
        mask ^= 1 << v
        branch ^= 1 << v
        found += _count(non, (mask & non[v]) ^ mask, size - 1, limit - found)
    return found


def _exists(non: list[int], mask: int, size: int, orbits: list[int]) -> bool:
    """Whether mask, the whole graph, holds a clique of the given size:
    _count with limit 1, except that at the root, once the branch on v finds
    none, all of orbits[v] leaves mask and the branch, not v alone.  No
    clique of the size holds a vertex dropped before v, so none holds v
    anywhere in the graph, and none holds an image of v under an
    automorphism."""
    branch = _beyond(non, mask, size)
    while branch:
        v = branch.bit_length() - 1
        rest = mask ^ 1 << v
        if _count(non, (rest & non[v]) ^ rest, size - 1, 1):
            return True
        mask &= ~orbits[v]
        branch &= ~orbits[v]
    return False


def _max_clique(adj: list[int], cand_mask: int, symmetries=()) -> int:
    """Largest clique size inside cand_mask, on the _core_first relabelling:
    a greedy clique that keeps taking the lowest common neighbour is a lower
    bound, and the size goes one up while _exists finds a clique one larger.
    symmetries are automorphisms of the graph induced on cand_mask, each a
    list with p[v] the image of v (as _automorphisms gives them); a vertex's
    orbit is its images under them, itself included."""
    order = _core_first(adj, cand_mask)
    pos = {v: i for i, v in enumerate(order)}
    orbits = [1 << i for i in range(len(order))]
    for p in symmetries:  # two maps may agree on a vertex, so the images are or-ed
        for i, v in enumerate(order):
            orbits[i] |= 1 << pos[p[v]]
    adj = _relabel(adj, cand_mask, order)
    full = (1 << len(adj)) - 1
    best, common = 0, full
    while common:
        best += 1
        common &= adj[(common & -common).bit_length() - 1]
    non = _complement(adj)
    while _exists(non, full, best + 1, orbits):
        best += 1
    return best


def _count_cliques(adj: list[int], cand_mask: int, size: int) -> int:
    """Number of cliques of exactly the given size inside cand_mask, by _count
    with a limit no count reaches, after _relabel by descending degree inside
    cand_mask (ties keep the lower index); the count does not depend on labels."""
    order = sorted(_bits(cand_mask), key=lambda v: -(adj[v] & cand_mask).bit_count())
    non = _complement(_relabel(adj, cand_mask, order))
    return _count(non, (1 << len(order)) - 1, size, 1 << len(order))


def _bron_kerbosch(adj: list[int], r: int, p: int, x: int, out: list[int]) -> None:
    """Append to out the maximal cliques r | (some of p) that miss x, pivoting
    on the first vertex of p | x with the most neighbours in p."""
    if not p and not x:
        out.append(r)
        return
    most, rest = -1, p | x
    while rest:
        low = rest & -rest
        rest ^= low
        k = (p & adj[low.bit_length() - 1]).bit_count()
        if k > most:
            most, pivot = k, low.bit_length() - 1
    rest = p & ~adj[pivot]
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        _bron_kerbosch(adj, r | low, p & adj[v], x & adj[v], out)
        p ^= low
        x |= low


def _maximal_cliques(adj: list[int], cand_mask: int) -> list[int]:
    """The maximal cliques inside cand_mask, as bitmasks, by Bron-Kerbosch."""
    out = []
    _bron_kerbosch(adj, 0, cand_mask, 0, out)
    return out


def _first_clique(non: list[int], mask: int, size: int) -> int | None:
    """The lex-first clique (by sorted vertex list) of exactly the given size
    inside mask, as a bitmask, or None, on the complement rows non; the
    witness of extension_search.  Each clique grows from its lowest vertex
    through its later neighbors, and a node is pruned when _beyond finds no
    clique of the size still needed."""
    if size == 0:
        return 0
    if not _beyond(non, mask, size):
        return None
    while mask:
        low = mask & -mask
        mask ^= low
        nxt = (mask & non[low.bit_length() - 1]) ^ mask
        if nxt.bit_count() >= size - 1:
            rest = _first_clique(non, nxt, size - 1)
            if rest is not None:
                return rest | low
    return None


@functools.lru_cache(maxsize=None)
def _split(n: int, d: int) -> tuple[tuple[Colors, ...], tuple[int, ...]]:
    """The peripheral subsets of [n] for dimension d, and the position codes
    on 1..n (colors._encode on colors._positions(n)) of the other subsets,
    by size, then lex, each made once as a sum of the bits of its colors."""
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]  # the codes of the colors 1..n
    peripheral, codes = [], []
    for k in range(n + 1):
        for x, code in zip(subsets(range(1, n + 1), k), map(sum, subsets(bits, k))):
            if _runs(code) + _runs(full & ~code) <= d:
                peripheral.append(x)
            else:
                codes.append(code)
    return tuple(peripheral), tuple(codes)


@functools.lru_cache(maxsize=None)
def _lex(n: int) -> tuple[tuple[Colors, ...], tuple[int, ...]]:
    """The subsets of [n] in lex order, and per position code (colors._encode
    on colors._positions(n)) the bit of its subset: the i-th subset in lex
    order is bit 2^n - 1 - i, so the least set is the highest bit.  Of two
    masks of as many sets, the higher holds the least set of their
    symmetric difference, so it lists first when each is read as its sorted
    tuple of sets; format(mask) reads the sets in lex order."""
    order = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), k) for k in range(n + 1)))
    bit = [0] * len(order)
    for i, x in enumerate(order):
        bit[sum(1 << (c - 1) for c in x)] = 1 << (len(order) - 1 - i)
    return tuple(order), tuple(bit)


def _read(sets, mask: int) -> tuple:
    """The sets at the bits of mask, sets[0] at the highest of len(sets) bits."""
    return tuple(itertools.compress(sets, format(mask, f"0{len(sets)}b").encode().translate(_DIGITS)))


def _adjacency(codes, compatible) -> list[int]:
    """The bitmask adjacency of compatible among the codes, codes[i] as vertex i."""
    adj = [0] * len(codes)
    for i, a in enumerate(codes):
        for j in range(i + 1, len(codes)):
            if compatible(a, codes[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _automorphisms(adj: list[int], codes, maps) -> list[list[int]]:
    """The maps on codes that send codes onto codes and adj onto itself, as
    vertex permutations (p[i] is the vertex coded maps(codes[i])); every
    other map is dropped, so _max_clique prunes only by a verified one."""
    index = {c: i for i, c in enumerate(codes)}
    full = (1 << len(codes)) - 1
    out = []
    for f in maps:
        p = [index.get(f(c)) for c in codes]
        if None not in p and len(set(p)) == len(p) and _relabel(adj, full, p) == adj:
            out.append(p)
    return out


def _reflections(n: int):
    """The reversal i -> n+1-i, the complement x -> [n] - x and both, as maps
    on the position codes of the subsets of [n]."""
    full = (1 << n) - 1

    def reverse(code: int) -> int:
        return int(format(code, f"0{n}b")[::-1], 2)

    return reverse, full.__xor__, lambda code: full ^ reverse(code)


class ExtensionReport(NamedTuple):
    n: int
    d: int
    base_size: int
    bound: int
    completable: bool
    completion: tuple[Colors, ...] | None
    maximal_sizes: tuple[int, ...] | None
    maximal_completions: tuple[tuple[Colors, ...], ...] | None

    @property
    def gap(self) -> int | None:
        if self.maximal_sizes is None:
            return None
        return self.bound - min(self.maximal_sizes)


def extension_search(sets, n: int, d: int, mode: str = "complete") -> ExtensionReport:
    """Completion search for a pairwise (d-1)-separated system inside [n].

    Peripheral sets are compatible with everything, so every maximal
    completion contains all of them and the search branches only over the
    non-peripheral candidates; this collapses the interesting cases to a few
    dozen vertices.  complete mode looks for a completion reaching the
    C(n,<=d) maximum; certify-maximal enumerates the maximal-by-inclusion
    completions and reports their sizes.  When several completions reach
    the maximum, the two modes report different ones: complete the first
    when each lists its sets by size, then lex, and certify-maximal the last
    of maximal_completions, the lex-last as a sorted tuple of sets.  Each
    completion is a mask over the kept sets in lex order (_lex), the least
    set on the highest bit, so the masks sort as ints and each is read back
    as its sorted tuple of sets in one pass.  Refuses n above
    MAX_SEPARATION_N with ScaleGuardError before building the graph.
    """
    if mode not in ("complete", "certify-maximal"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_dimensions(n, d)
    _separation_scale_guard(n)
    members = sorted({colorset(s) for s in sets})
    _check_inside(members, n)
    codes = [_encode(s, _positions(n)) for s in members]
    _check_separated(members, codes, d - 1)
    bound = _vertex_count(n, d)
    _, other_codes = _split(n, d)
    cands = [c for c in other_codes if c not in codes]
    for s in codes:
        cands = [c for c in cands if _blocks(c, s) <= d]
    # the kept sets (the peripheral ones, the members and the candidates) on
    # _lex's bits, then renumbered within the kept sets, which keeps their
    # order: a completion is the held sets' mask or-ed with a clique's bits
    lex, bit = _lex(n)
    peripheral = (1 << len(lex)) - 1 ^ sum(map(bit.__getitem__, other_codes))
    wide = [bit[c] for c in cands]
    kept = peripheral | sum(map(bit.__getitem__, codes)) | sum(wide)
    kept_sets = _read(lex, kept)
    cand_bits = [1 << (kept & (b - 1)).bit_count() for b in wide]
    held = (1 << len(kept_sets)) - 1 ^ sum(cand_bits)

    def spread(clique: int) -> int:
        return held | sum(itertools.compress(cand_bits, bin(clique)[:1:-1].encode().translate(_DIGITS)))

    adj = _adjacency(cands, lambda a, b: _blocks(a, b) <= d)
    full = (1 << len(cands)) - 1
    if mode == "complete":
        # the lexicographically first clique with the candidates by size, then lex
        witness = _first_clique(_complement(adj), full, bound - held.bit_count())
        completion = None if witness is None else _read(kept_sets, spread(witness))
        return ExtensionReport(n, d, len(members), bound, completion is not None,
                               completion, None, None)
    masks = [spread(clique) for clique in _maximal_cliques(adj, full) or [0]]
    masks.sort(reverse=True)
    masks.sort(key=int.bit_count)
    completions = tuple(_read(kept_sets, mask) for mask in masks)
    sizes = tuple(map(len, completions))
    return ExtensionReport(n, d, len(members), bound, bound in sizes,
                           completions[-1] if bound in sizes else None,
                           sizes, completions)


def weak_separation_suite(n: int, k: int) -> dict:
    """Exhaustive maximum-size search for weakly k-separated systems in [n].

    Peripheral sets (for d = k+1) are k-separated with everything, hence
    always extend a weak system; the exact maximum is their count plus the
    largest weak clique among the remaining sets.  That search drops a
    refuted vertex together with its images under the reflections
    (_reflections) that _automorphisms finds to keep the graph.  Reports the maximum and
    whether it meets the C(n,<=k+1) ceiling.  Refuses an n that is no
    integer >= 1, or a k that is no odd integer >= 1, with ValueError, and
    n above MAX_SEPARATION_N with ScaleGuardError before building the graph.
    """
    _check_dimension(n, "n")
    _check_weak_k(k)
    _separation_scale_guard(n)
    bound = _vertex_count(n, k + 1)
    peripheral, codes = _split(n, k + 1)
    adj = _adjacency(codes, lambda a, b: _weak(a, b, k))
    best = _max_clique(adj, (1 << len(codes)) - 1, _automorphisms(adj, codes, _reflections(n)))
    maximum = len(peripheral) + best
    return {
        "n": n,
        "k": k,
        "bound": bound,
        "max_size": maximum,
        "meets_bound": maximum == bound,
        "peripheral": len(peripheral),
        "non_peripheral_clique": best,
    }
