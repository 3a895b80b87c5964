"""Cubes and cubillages of cyclic zonotopes.

A cubillage of Z(C,d) is encoded purely combinatorially: a map from each
d-subset of the color set C (the cube's type) to the spectrum of the cube's
root vertex.  The single source of geometric truth is the parity rule from
colors.is_even; the geom module re-derives every visibility decision from
exact determinants and is used in the tests to cross-check this module.
Only validate reads facets, independently of the inversion masks (masks)
that the order module reads.  validate and the vertex spectra code color
sets by position (colors._encode): a facet (root, J) is the int
root << n | J.  One submask kernel, _spectrum_codes, gives the spectra
as codes: q.vertices() decodes them (colors._decode, which reads byte
tables), validate counts them and, when q passes, leaves them for
q.vertices().  The types of Z(C,d) are numbered once, by their lex
position among the d-subsets of C (_numbering, a table cached per (C, d)
that validate, the orders on types and the inversion masks all read).
validate takes each type's code and facet sides from _type_rows and the
boundary plates from _plate_codes, tables built once per (n, d), records
each facet's owner as a type number, and checks for cycles by
_topological, the Kahn pass on numbers that _closure builds on; it
decodes only the facet and the types a diagnostic names.  All three
expansions insert a color by one rule, _insert, which reduce inverts.
This module imports from colors alone, except in the body of expand,
which reads the natural order.

All values are immutable; operations return fresh objects.  Color sets are
canonicalized and d checked where they enter: Cubillage(...), from_json, and
public functions (root_of, expand, ...).  There are two constructors.
The public one takes outside input: it canonicalizes every color set and
refuses a repeated type.  Internal builders pass canonical tuples and a
checked d, read _root_by_type directly and hand Cubillage._adopt a finished
type -> root dict, its types distinct by construction, that the instance
adopts (a flip copies its input's and patches d+1 roots).  Every build
passes through Cubillage._fill.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import comb
from typing import NamedTuple

from .colors import (Colors, _check_dimension, _decode, _encode, _positions, add, colorset, is_even,
                     minus, subsets)


class Cube(NamedTuple):
    root: Colors
    type: Colors


class Facet(NamedTuple):
    root: Colors
    type: Colors


class CubillageError(Exception):
    """A structural diagnostic: the input is not what it claims to be."""


class ScaleGuardError(RuntimeError):
    """The requested search exceeds the configured desk-scale caps."""


# standard and antistandard walk the n colors once per each of the C(n,d)
# roots, so their time grows with C(n,d)*n, which they cap, as does
# embed_subcubillage, whose n insertions each rebuild the cubes: on a 2-core Xeon
# with Python 3.11, `zonocube standard -n 19 -d 9` (C(19,9)*19 = 1,755,182,
# just under the cap) takes about 1.2 s
MAX_EXTREME_WORK = 2_000_000

# enumerate_cubillages refuses Z(n,d) with more cube types than this
MAX_ENUMERATION_TYPES = 70


def _check_dimensions(n: int, d: int) -> None:
    """The (n, d) rule: d by _check_dimension, n an int (not a bool) of at least d."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < _check_dimension(d):
        raise ValueError(f"need n >= d >= 1, got ({n},{d})")


def _vertex_count(n: int, d: int) -> int:
    """C(n,<=d), the vertex count of every cubillage of Z(n,d)."""
    return sum(comb(n, k) for k in range(d + 1))


def _extreme_work_guard(n: int, d: int) -> None:
    """Refuse C(n,d)*n, the work of building the standard cubillage, above
    MAX_EXTREME_WORK."""
    if comb(n, d) * n > MAX_EXTREME_WORK:
        raise ScaleGuardError(
            f"C({n},{d})*{n} = {comb(n, d) * n} exceeds the cap {MAX_EXTREME_WORK}")


class Cubillage:
    """A type-indexed collection of cubes over a fixed color set.

    Construction canonicalizes every color set but does not validate
    tiling-hood; call validate() for the full diagnosis.  Instances are
    immutable by convention and hash on their canonical cube listing.
    """

    __slots__ = ("colors", "d", "_root_by_type", "_cache")

    def __init__(self, colors, d: int, cubes):
        _check_dimension(d)
        colors, root_by_type = colorset(colors), {}
        for root, typ in cubes:
            root, typ = colorset(root), colorset(typ)
            if typ in root_by_type:
                raise ValueError(f"duplicate cube type {typ}")
            root_by_type[typ] = root
        self._fill(colors, d, root_by_type)

    @classmethod
    def _adopt(cls, colors: Colors, d: int, root_by_type: dict[Colors, Colors]) -> "Cubillage":
        """Construction around a finished type -> root dict built inside the
        package, its types distinct by construction; the instance owns it."""
        q = cls.__new__(cls)
        q._fill(colors, d, root_by_type)
        return q

    def _fill(self, colors: Colors, d: int, root_by_type: dict[Colors, Colors]):
        self.colors = colors
        self.d = d
        self._root_by_type = root_by_type
        self._cache = {}

    @property
    def cubes(self) -> tuple[Cube, ...]:
        return tuple(Cube(self._root_by_type[t], t) for t in sorted(self._root_by_type))

    @property
    def n(self) -> int:
        return len(self.colors)

    def types(self):
        return sorted(self._root_by_type)

    def root_of(self, typ) -> Colors:
        return self._root_by_type[colorset(typ)]

    def __contains__(self, typ) -> bool:
        return colorset(typ) in self._root_by_type

    def __len__(self):
        return len(self._root_by_type)

    def key(self):
        return (self.colors, self.d, tuple(sorted(self._root_by_type.items())))

    def __eq__(self, other):
        return isinstance(other, Cubillage) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = ", ".join(f"({''.join(map(str, r)) or '-'},{''.join(map(str, t))})" for r, t in
                         ((c.root, c.type) for c in self.cubes))
        return f"Cubillage(Z({self.n},{self.d}); {body})"

    def vertices(self) -> frozenset[Colors]:
        """All vertex spectra: root ∪ S over cubes and subsets S of their
        types.  Decodes the codes a passing validate left, if any."""
        cache = self._cache
        if "vertices" not in cache:
            codes = cache.get("spectrum_codes")
            cache["vertices"] = (_spectra([(r, t) for t, r in self._root_by_type.items()])
                                 if codes is None else
                                 frozenset(_decode(v, self.colors) for v in codes))
        return cache["vertices"]

    def _data(self) -> dict:
        """What to_json writes, to embed; json writes its tuples as arrays."""
        return _data(self.colors, self.d, sorted(self._root_by_type.items()))

    def to_json(self) -> str:
        return json.dumps(self._data())

    @classmethod
    def from_json(cls, text: str) -> "Cubillage":
        data = json.loads(text)
        return cls(data["colors"], data["d"], [(c["root"], c["type"]) for c in data["cubes"]])


def _data(colors: Colors, d: int, pairs) -> dict:
    """The JSON shape of a cubillage, from its (type, root) pairs in type
    order: the one writer of Cubillage._data and of the streamed output of
    the enumerate command, which builds no cubillage."""
    return {"colors": colors, "d": d, "cubes": [{"root": r, "type": t} for t, r in pairs]}


def _colors_of(faces) -> Colors:
    """The sorted colors of the faces, each a (root, type) pair."""
    return tuple(sorted(set().union(*itertools.chain.from_iterable(faces))))


def _coded(faces, colors: Colors) -> list[tuple[int, int]]:
    """The faces (root, type) as (root code, type code) by position in the colors."""
    index = {c: k for k, c in enumerate(colors)}
    return [(_encode(root, index), _encode(typ, index)) for root, typ in faces]


def _spectrum_codes(coded) -> set[int]:
    """The codes r | s of the vertex spectra of the coded faces (r, t), s
    over the submasks of each type code t."""
    codes = set()
    for r, t in coded:
        s = t
        while True:  # s runs over the submasks of t, down to 0
            codes.add(r | s)
            if not s:
                break
            s = (s - 1) & t
    return codes


def _spectra(faces) -> frozenset[Colors]:
    """The vertex spectra root ∪ S of the faces (root, type), S over the
    subsets of each type.  The sets are coded by position in the colors of
    all faces, so a root may meet its type or repeat a color, and each
    distinct spectrum is decoded once."""
    faces = list(faces)
    colors = _colors_of(faces)
    return frozenset(_decode(v, colors) for v in _spectrum_codes(_coded(faces, colors)))


def facet_sides(cube: Cube) -> dict[int, tuple[Facet, Facet]]:
    """For each type color t, the (visible, invisible) facet pair across t.

    The facet spanning type-t, i.e. J = type - t, sits at the cube root or is
    shifted by t; the invisible one is the unshifted copy exactly when t is
    odd relative to J.
    """
    out = {}
    for t in cube.type:
        j = minus(cube.type, (t,))
        at_root = Facet(cube.root, j)
        shifted = Facet(add(cube.root, t), j)
        if is_even(t, j):
            out[t] = (at_root, shifted)
        else:
            out[t] = (shifted, at_root)
    return out


def _parity_root(colors: Colors, j: Colors, even: bool) -> Colors:
    """The colors outside j whose parity relative to j is even (or odd), for
    j inside the colors: one upward walk counts the members of j above each."""
    members, above, root = set(j), len(j), []
    for c in colors:
        if c in members:
            above -= 1
        elif (above % 2 == 0) == even:
            root.append(c)
    return tuple(root)


def boundary_plates(colors, d: int, side: str) -> frozenset[Facet]:
    """Boundary facets of the zonotope Z(colors,d) on the requested side.

    For each (d-1)-subset J the front plate is rooted at the odd-parity
    colors outside J and the back plate at the even-parity ones; together the
    two sides have 2*C(n,d-1) plates.
    """
    cs = colorset(colors)
    _check_dimensions(len(cs), d)
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', not {side!r}")
    return frozenset(Facet(_parity_root(cs, j, side == "back"), j) for j in subsets(cs, d - 1))


@functools.lru_cache(maxsize=64)
def _plate_codes(n: int, d: int) -> tuple[frozenset[int], frozenset[int]]:
    """The front and back boundary plates of Z(n,d) as facet codes
    root << n | J by position, which depend on positions alone: the front
    plate of J is rooted at the positions outside J that are odd relative
    to J, the back plate at the even ones."""
    index, positions = _positions(n), tuple(range(1, n + 1))
    front, back = set(), set()
    full = (1 << n) - 1
    for j in subsets(positions, d - 1):
        jc, odd = _encode(j, index), _encode(_parity_root(positions, j, False), index)
        front.add(odd << n | jc)
        back.add((full ^ jc ^ odd) << n | jc)
    return frozenset(front), frozenset(back)


def _facet(code: int, colors: Colors) -> Facet:
    """The facet of the code root << n | J, n the number of colors."""
    n = len(colors)
    return Facet(_decode(code >> n, colors), _decode(code & ((1 << n) - 1), colors))


def _sides(t: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """facet_sides on the type code t, n the number of colors: per color bit
    of t, from the lowest, (J, the shift of the visible facet, the shift of
    the invisible one).  The facets of a root code r across that color are
    r << n | J at the root and, shifted by the color bit moved up n places,
    away from it; the unshifted facet is the visible one when J has an even
    number of members above the color."""
    out, rest = [], t
    while rest:
        low = rest & -rest
        rest ^= low
        j, shift = t ^ low, low << n
        out.append((j, 0, shift) if (j & -low).bit_count() % 2 == 0 else (j, shift, 0))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _numbering(colors: Colors, d: int) -> dict[Colors, int]:
    """The lex number of each d-subset of the colors, its keys the types in
    lex order: the one numbering of the types that validate, the orders on
    types and the inversion masks read, for any color tuple."""
    return {t: k for k, t in enumerate(subsets(colors, d))}


@functools.lru_cache(maxsize=64)
def _type_rows(n: int, d: int) -> tuple[tuple[int, tuple], ...]:
    """Per lex number of a d-subset of n colors, its position code and its
    facet sides (_sides), which depend on positions alone."""
    bits = [1 << k for k in range(n)]
    return tuple((t, _sides(t, n)) for t in map(sum, subsets(bits, d)))


def _claimed(facet: int, owner: int, k: int, types, colors: Colors) -> CubillageError:
    """_pairing's clash: the types numbered owner and k claim the facet on one side."""
    return CubillageError(f"facet {_facet(facet, colors)} claimed twice on the same side by "
                          f"{types[owner]} and {types[k]}")


def _pairing(rows, n: int, types, colors: Colors):
    """Facet incidence maps, facet code -> owning type's number, per side,
    and the sorted pairs (below, above) of numbers of types sharing a facet
    invisible below, visible above.  rows gives each cube as (the number of
    its type in types, its root code, its type's facet sides by _sides),
    codes by position in the colors, n of them.  Raises on clashes."""
    visible, invisible = {}, {}
    for k, r, sides in rows:
        base = r << n
        for j, vis, invis in sides:
            facet = base | j
            owner = visible.setdefault(facet | vis, k)
            if owner != k:
                raise _claimed(facet | vis, owner, k, types, colors)
            owner = invisible.setdefault(facet | invis, k)
            if owner != k:
                raise _claimed(facet | invis, owner, k, types, colors)
    above = visible.get
    covers = [(below, a) for facet, below in invisible.items() if (a := above(facet)) is not None]
    covers.sort()
    return visible, invisible, covers


def cover_relations(q: Cubillage) -> tuple[tuple[Colors, Colors], ...]:
    """Pairs (below, above) of types sharing a facet invisible below, visible
    above.  Roots are taken to avoid their types, as validate requires.
    Coded by position in the colors of its cubes, so any type map will do;
    numbered in type order, so the sorted number pairs are the sorted pairs."""
    faces = [(root, typ) for typ, root in q._root_by_type.items()]
    colors = _colors_of(faces)
    n, types = len(colors), sorted(q._root_by_type)
    number = {t: k for k, t in enumerate(types)}
    rows = [(number[typ], r, _sides(t, n))
            for (_, typ), (r, t) in zip(faces, _coded(faces, colors))]
    return tuple((types[a], types[b]) for a, b in _pairing(rows, n, types, colors)[2])


def _topological(size: int, relations):
    """(topological order, successor lists) of (below, above) relations on
    the numbers 0..size-1, or None on a cycle: the order is Kahn's, taken
    in the order of the numbers and the relations, and succs[k] lists the
    numbers above k.  The package's one topological sort."""
    succs = [[] for _ in range(size)]
    indeg = [0] * size
    for below, above in relations:
        succs[below].append(above)
        indeg[above] += 1
    topo = [k for k in range(size) if not indeg[k]]
    for k in topo:  # grows while it is read
        for s in succs[k]:
            indeg[s] -= 1
            if not indeg[s]:
                topo.append(s)
    return (topo, succs) if len(topo) == size else None


def _closure(size: int, relations):
    """(topological order, up) of (below, above) relations on the numbers
    0..size-1, or None on a cycle: up[k] is the bitmask of the numbers
    reachable from k, and the order is _topological's."""
    found = _topological(size, relations)
    if found is None:
        return None
    topo, succs = found
    up = [0] * size
    for k in reversed(topo):
        mask = 1 << k
        for s in succs[k]:
            mask |= up[s]
        up[k] = mask
    return topo, up


def validate(q: Cubillage):
    """None when q satisfies all structural tiling conditions, else a diagnostic.

    Checked: (i) the type map is a bijection onto the d-subsets of the colors,
    (ii) facet pairing: every invisible facet is a back boundary plate or the
    visible facet of exactly one other cube, and symmetrically, (iii) the
    facet-induced precedence relation is acyclic, (iv) the vertex count is
    C(n, <=d).  It reads no inversion mask and no natural order; its sets
    are coded by position in the colors, each type's code and facet sides
    come from _type_rows by its number (_numbering), the facets of the
    boundary plates from _plate_codes, the facet owners are type numbers,
    the cycle check is _topological's on those numbers, and the vertices
    are counted as distinct codes, none decoded.  A pass leaves
    the codes on q for q.vertices(): they are by position in q.colors,
    which only a q that passes is known to fit.
    """
    n, d, colors = q.n, q.d, q.colors
    if n < d:
        return f"fewer colors ({n}) than the dimension ({d})"
    number, roots = _numbering(colors, d), q._root_by_type
    numbers = [number.get(t) for t in roots]
    if len(roots) != len(number) or None in numbers:
        expected, have = set(number), set(roots)
        missing = sorted(expected - have)
        extra = sorted(have - expected)
        return f"type map is not a bijection (missing {missing[:3]}, extra {extra[:3]})"
    index, table, types = {c: k for k, c in enumerate(colors)}, _type_rows(n, d), list(number)
    rows, coded = [], []
    for k, root in zip(numbers, roots.values()):
        t, sides = table[k]
        try:
            r = _encode(root, index)
        except KeyError:  # a root color outside the colors fails as a root meeting the type does
            r = t
        if r & t:
            return f"cube {types[k]} has invalid root {root}"
        rows.append((k, r, sides))
        coded.append((r, t))
    try:
        visible, invisible, covers = _pairing(rows, n, types, colors)
    except CubillageError as exc:
        return str(exc)
    front, back = _plate_codes(n, d)
    for facet, k in invisible.items():
        if facet not in back and facet not in visible:
            return f"invisible facet {_facet(facet, colors)} of cube {types[k]} is unmatched"
    for facet, k in visible.items():
        if facet not in front and facet not in invisible:
            return f"visible facet {_facet(facet, colors)} of cube {types[k]} is unmatched"
    for side, plates, facets in (("front", front, visible), ("back", back, invisible)):
        if not plates <= facets.keys():
            # name the first uncovered plate in the order boundary_plates lists them
            uncovered = {_facet(p, colors) for p in plates - facets.keys()}
            plate = next(p for p in boundary_plates(colors, d, side) if p in uncovered)
            return f"{side} plate {plate} not covered"
    if _topological(len(types), covers) is None:
        return "precedence relation between cubes has a cycle"
    codes = _spectrum_codes(coded)
    have, want = len(codes), _vertex_count(n, d)
    if have != want:
        return f"vertex count {have} != C({n},<={d}) = {want}"
    q._cache["spectrum_codes"] = codes
    return None


def is_valid(q: Cubillage) -> bool:
    return validate(q) is None


def edge_graph(q: Cubillage) -> dict[Colors, set[tuple[int, Colors]]]:
    """Directed edges spectrum -> (color, spectrum+color) along cube edges,
    found on position codes as the vertices are."""
    faces = [(r, t) for t, r in q._root_by_type.items()]
    colors = _colors_of(faces)
    arrows: dict[int, set[tuple[int, int]]] = {}
    for r, t in _coded(faces, colors):
        s = t
        while True:  # s runs over the submasks of t, down to 0
            heads = arrows.setdefault(r | s, set())
            rest = t & ~s
            while rest:
                low = rest & -rest
                rest ^= low
                heads.add((low.bit_length() - 1, r | s | low))
            if not s:
                break
            s = (s - 1) & t
    name = {v: _decode(v, colors) for v in arrows}
    return {name[v]: {(colors[k], name[w]) for k, w in heads} for v, heads in arrows.items()}


def snakes(q: Cubillage):
    """All maximal monotone edge paths from the bottom to the top vertex,
    each reported as the sequence of edge colors."""
    graph = edge_graph(q)
    top = q.colors
    results = []
    stack = [((), ())]
    while stack:
        spec, path = stack.pop()
        if spec == top:
            results.append(path)
            continue
        for i, nxt in sorted(graph[spec]):
            stack.append((nxt, path + (i,)))
    return sorted(results)


def _extreme(colors, d: int, even: bool) -> Cubillage:
    """The bottom (odd roots) or top (even roots) of the higher Bruhat order.
    A range of colors is sized and guarded before its colors are listed.
    It comes with its inversion mask cached, as masks._mask_of keeps it:
    no bit for the bottom, all C(n,d+1) bits for the top."""
    cs = colors if isinstance(colors, range) else colorset(colors)
    _check_dimensions(len(cs), d)
    _extreme_work_guard(len(cs), d)
    if isinstance(cs, range):
        cs = colorset(cs)
    q = Cubillage._adopt(cs, d, {t: _parity_root(cs, t, even) for t in subsets(cs, d)})
    q._cache["mask"] = (1 << comb(len(cs), d + 1)) - 1 if even else 0
    return q


def standard(colors, d: int) -> Cubillage:
    """The standard cubillage, the one with no inversions: each cube of
    type T is rooted at the colors outside T that are odd relative to T.
    Refuses C(n,d)*n above MAX_EXTREME_WORK with ScaleGuardError."""
    return _extreme(colors, d, False)


def antistandard(colors, d: int) -> Cubillage:
    """The antistandard cubillage, the one inverting every (d+1)-subset:
    each cube of type T is rooted at the colors outside T that are even
    relative to T.  Refuses C(n,d)*n above MAX_EXTREME_WORK with
    ScaleGuardError."""
    return _extreme(colors, d, True)


class Reduction(NamedTuple):
    cubillage: Cubillage
    seam: frozenset[Facet]
    below: frozenset[Colors]


def partition(q: Cubillage, i: int) -> tuple[Cube, ...]:
    """All cubes whose type contains color i; always C(n-1,d-1) of them."""
    if i not in set(q.colors):
        raise ValueError(f"color {i} not in {q.colors}")
    return _cubes_where(q, lambda t: i in t)


def tunnel(q: Cubillage, dset) -> tuple[Cube, ...]:
    """All cubes whose type contains the fixed (d-1)-set; n-d+1 of them."""
    ds = set(colorset(dset))
    return _cubes_where(q, ds.issubset)


def _cubes_where(q: Cubillage, keep) -> tuple[Cube, ...]:
    """The cubes of q whose type passes keep, in type order; only those
    are built and sorted."""
    return tuple(Cube(r, t) for t, r in sorted(item for item in q._root_by_type.items()
                                               if keep(item[0])))


def reduce(q: Cubillage, i: int) -> Reduction:
    """Delete color i: drop its partition and close the gap.

    Kept cubes lose i from their root when present; the seam holds the
    partition with i taken from its types, and below the kept types in
    front of it: _insert(red.cubillage, i, red.below, red.seam) gives q
    back.  For the top color the seam is a membrane of the result.  Refuses
    Z(d,d), whose Z(d-1,d) has no cubes, with ValueError.
    """
    if i not in set(q.colors):
        raise ValueError(f"color {i} not in {q.colors}")
    if q.n == q.d:
        raise ValueError(f"deleting a color of Z({q.n},{q.d}) leaves fewer colors than d")
    kept = {}
    seam = set()
    below = set()
    for typ, root in q._root_by_type.items():
        if i in set(typ):
            seam.add(Facet(minus(root, (i,)), minus(typ, (i,))))
        else:
            kept[typ] = minus(root, (i,))
            if i not in set(root):
                below.add(typ)
    out = Cubillage._adopt(minus(q.colors, (i,)), q.d, kept)
    return Reduction(out, frozenset(seam), frozenset(below))


def _insert(q: Cubillage, i: int, stack, layer) -> Cubillage:
    """Insert the fresh color i: cubes with types in the stack keep their
    roots, the others gain i, and each (root, J) of the layer becomes the
    cube (root, J ∪ {i}).  reduce(result, i) gives back q, stack and layer."""
    roots = {t: root if t in stack else add(root, i) for t, root in q._root_by_type.items()}
    roots.update((add(j, i), root) for root, j in layer)
    return Cubillage._adopt(add(q.colors, i), q.d, roots)


def expand(q: Cubillage, stack, i: int) -> Cubillage:
    """Insert a new top color i by pushing apart the membrane over the stack.

    The stack must be a downward closed set of types of q and i must exceed
    every existing color.  Cubes in the stack keep their roots, the rest gain
    i, and each plate of the membrane of the stack grows into a new cube of
    type plate+i at the plate's root (_insert).  Certifies q by
    masks._mask_of, through the natural order that checks the stack.
    """
    from .order import _ideal, _plates

    if q.colors and i <= q.colors[-1]:
        raise ValueError(f"expansion color {i} must exceed max color {q.colors[-1]}")
    stack = _ideal(q, stack)
    return _insert(q, i, stack, _plates(q, stack))


def _expand_at_side(q: Cubillage, i: int, front: bool) -> Cubillage:
    """_insert with every old cube (at the back) or none (at the front) in
    the stack, and the v_i-invisible or v_i-visible boundary as the layer."""
    if i in set(q.colors):
        raise ValueError(f"color {i} already present")
    layer = [(_parity_root(q.colors, j, is_even(i, j) != front), j)
             for j in subsets(q.colors, q.d - 1)]
    return _insert(q, i, () if front else q._root_by_type, layer)


def expand_at_back(q: Cubillage, i: int) -> Cubillage:
    """One-element lifting gluing the new color-i layer to the v_i-invisible
    boundary; works for any fresh i, not just a maximal one.  Old cubes keep
    their roots, so all existing vertex spectra survive."""
    return _expand_at_side(q, i, front=False)


def expand_at_front(q: Cubillage, i: int) -> Cubillage:
    """Mirror of expand_at_back: glue the new layer to the v_i-visible
    boundary; every old vertex spectrum is shifted by +{i}."""
    return _expand_at_side(q, i, front=True)


def point_cubillage(d: int) -> Cubillage:
    """The empty cubillage over no colors; seed for embeddings."""
    return Cubillage((), d, [])


def embed_subcubillage(q_t: Cubillage, x, colors) -> Cubillage:
    """Grow a cubillage of Z(colors,d) containing the translate of q_t by x.

    x must be disjoint from q_t's colors and x ∪ colors(q_t) ⊆ colors.  Fresh
    colors outside x are inserted at the back (roots preserved), colors of x
    at the front (roots all gain the color), so every cube (r,t) of q_t ends
    up as (x ∪ r, t) and every spectrum x ∪ s occurs in the result.
    Refuses C(n,d)*n above MAX_EXTREME_WORK with ScaleGuardError, as
    standard does, before the first insertion.
    """
    xs = colorset(x)
    cs = colorset(colors)
    _check_dimensions(len(cs), q_t.d)
    _extreme_work_guard(len(cs), q_t.d)
    w = set(q_t.colors)
    if w & set(xs):
        raise ValueError("x must avoid the colors of the embedded cubillage")
    if not (w | set(xs)) <= set(cs):
        raise ValueError("x and the embedded colors must lie inside the target colors")
    q = q_t
    for i in xs:
        q = expand_at_front(q, i)
    for i in cs:
        if i not in w and i not in xs:
            q = expand_at_back(q, i)
    return q


def contract(q: Cubillage, i: int) -> Cubillage:
    """Project the color-i partition one dimension down.

    Always a cubillage of Z(colors-i, d-1) when i is the top color; for a
    lower color the projection can overlap itself, and then validate's
    diagnostic is raised as CubillageError.  Refuses d = 1 with ValueError.
    """
    roots = {minus(c.type, (i,)): c.root for c in partition(q, i)}
    _check_dimension(q.d - 1)
    out = Cubillage._adopt(minus(q.colors, (i,)), q.d - 1, roots)
    diagnostic = validate(out)
    if diagnostic is not None:
        raise CubillageError(f"contracting color {i} gives no tiling: {diagnostic}")
    return out


def central_symmetry(q: Cubillage) -> Cubillage:
    """The image of the cubillage under the point symmetry of the zonotope."""
    full = set(q.colors)
    roots = {t: tuple(sorted(full.difference(r, t))) for t, r in sorted(q._root_by_type.items())}
    return Cubillage._adopt(q.colors, q.d, roots)
