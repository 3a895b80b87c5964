"""The natural order on the cubes of a cubillage and what is built on it,
stacks, membranes and the garland bijection between the front and back
rims; and the moves read off the inversion mask (masks): flips, avalanches,
standardization and the canonical extension of a membrane.

AdmissibleOrder is the one class for an order on d-subsets: natural_order
gives the natural order of a cubillage on its cube types as one, and the
public constructor builds one from generating relations.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import comb
from typing import NamedTuple

from .colors import (Colors, _check_dimension, _encode, _positions, add, colorset, inter, minus,
                     subsets, union)
from .cubillage import (Cubillage, CubillageError, Facet, _closure, _numbering, _parity_root,
                        _spectra, boundary_plates)
from .masks import (
    _cubes,
    _cubillage_of_mask,
    _flipped,
    _free,
    _lift,
    _mask,
    _mask_of,
    _sets,
    _state,
)


class AdmissibleOrder:
    """A partial order on d-subsets whose packet restrictions are all lex
    or antilex chains (Manin-Schechtman 1989; Ziegler, Topology 1993), kept
    as its sorted generating relations, one closure and _inv, the inversion
    mask of the parents whose packet runs antilex.  The relations and the
    closure run on the lex numbers of the types (cubillage._numbering):
    _relations holds the sorted number pairs, _topo the topological order
    and _up[k] the bitmask of the numbers above k.  The constructor runs
    every check and builds _inv by the packet check; natural_order stores
    the mask it certified, with no packet check.  Methods take canonical types."""

    def __init__(self, colors, d: int, relations):
        colors, d = colorset(colors), _check_dimension(d)
        relations = [(colorset(a), colorset(b)) for a, b in relations]
        number = _numbering(colors, d)
        for a, b in relations:
            if a not in number or b not in number:
                raise ValueError(f"relation {a} < {b} leaves the grassmannian")
        self._fill(colors, d, sorted((number[a], number[b]) for a, b in relations))
        self._inv = _mask(colors, d, lambda parent: self.packet_direction(parent) == "antilex")

    def _fill(self, colors: Colors, d: int, relations):
        """Set the order up from relations, sorted (below, above) pairs of
        lex numbers of types, and close them."""
        self.colors = colors
        self.d = d
        self._number = _numbering(colors, d)
        self.types = list(self._number)
        self._relations = tuple(relations)
        closure = _closure(len(self.types), self._relations)
        if closure is None:
            raise ValueError("relations contain a cycle; not an order")
        self._topo, self._up = closure

    @functools.cached_property
    def relations(self) -> tuple[tuple[Colors, Colors], ...]:
        """The sorted generating relations as (below, above) type pairs."""
        types = self.types
        return tuple((types[a], types[b]) for a, b in self._relations)

    def leq(self, a, b) -> bool:
        number = self._number
        return bool(self._up[number[a]] >> number[b] & 1)

    def topological(self) -> list[Colors]:
        types = self.types
        return [types[k] for k in self._topo]

    def packet_direction(self, parent) -> str:
        """"lex" or "antilex"; raises when the packet is not a full chain."""
        chain = list(itertools.combinations(parent, self.d))
        if all(self.leq(a, b) for a, b in zip(chain, chain[1:])):
            return "lex"
        if all(self.leq(b, a) for a, b in zip(chain, chain[1:])):
            return "antilex"
        raise ValueError(f"packet of {parent} is not a lex or antilex chain")

    def linear_extension(self) -> list[Colors]:
        """The types by falling size of their up sets, ties in lex order."""
        up, types = self._up, self.types
        return [types[k] for k in sorted(range(len(up)), key=lambda k: -up[k].bit_count())]

    def extends(self, other: "AdmissibleOrder") -> bool:
        """True when every relation of other also holds here."""
        return all(self.leq(a, b) for a, b in other.relations)

    def is_ideal(self, types_set) -> bool:
        number = self._number
        member = frozenset(types_set)
        if not number.keys() >= member:
            return False
        numbers = {number[t] for t in member}
        return all(below in numbers for below, above in self._relations if above in numbers)

    def ideals(self):
        """All downward closed type sets, by size then lexicographically; in
        topological order, each type joins every ideal so far holding all it covers."""
        types, found = self.types, [frozenset()]
        for k in self._topo:
            below = {types[b] for b, a in self._relations if a == k}
            found += [ideal | {types[k]} for ideal in found if below <= ideal]
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def to_dot(self) -> str:
        def name(t):
            return ",".join(map(str, t)) if any(c > 9 for c in t) else "".join(map(str, t))

        lines = ["digraph natural_order {"]
        for t in self.types:
            lines.append(f'  "{name(t)}";')
        for below, above in self.relations:
            lines.append(f'  "{name(below)}" -> "{name(above)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, AdmissibleOrder)
                and (self.colors, self.d) == (other.colors, other.d)
                and self._up == other._up)

    def __hash__(self):
        return hash((self.colors, self.d, tuple(self._up)))

    def to_json(self) -> str:
        n = self.colors[-1] if self.colors else 0
        if self.colors != tuple(range(1, n + 1)):
            raise ValueError("JSON form requires contiguous colors 1..n")
        return json.dumps({
            "n": n,
            "d": self.d,
            "relations": [[list(a), list(b)] for a, b in self.relations],
        })

    @classmethod
    def from_json(cls, text: str) -> "AdmissibleOrder":
        data = json.loads(text)
        if type(data["n"]) is not int:
            raise ValueError(f"n must be an integer, got {data['n']!r}")
        return cls(range(1, data["n"] + 1), data["d"],
                   [(a, b) for a, b in data["relations"]])


@functools.lru_cache(maxsize=64)
def _chain_rows(n: int, d: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per lex number of a type T of Z(n,d), per color c of T, the triple
    (the first slot of the tunnel of J = T - {c} in _chains, the position
    code of the root of J's front plate, the mask of every position but
    c's), J's tunnels taken in the lex order of the (d-1)-subsets."""
    positions, length, full = tuple(range(1, n + 1)), n - d + 1, (1 << n) - 1
    tunnel = {j: (k * length, _encode(_parity_root(positions, j, False), _positions(n)))
              for k, j in enumerate(subsets(positions, d - 1))}
    return tuple(tuple((*tunnel[minus(t, (c,))], full ^ 1 << (c - 1)) for c in t)
                 for t in subsets(positions, d))


def _chains(q: Cubillage) -> list[int]:
    """The tunnel chains of q, a cubillage certified by masks._mask_of, as
    lex numbers of types: the tunnel of each (d-1)-subset J, in lex order
    of J, fills n-d+1 slots from its front to its back.  Read off the
    roots: the tunnel runs from the front plate of J, rooted at F_J, to its
    back plate, and each cube J ∪ {c} toggles c once on the way, so the
    root of J ∪ {c}, less c, differs from F_J in exactly the colors toggled
    before it; their count is its slot in the chain."""
    colors, d, roots = q.colors, q.d, q._root_by_type
    n = len(colors)
    index = _positions(n) if colors[-1:] == (n,) else {c: k for k, c in enumerate(colors)}
    chains = [0] * (comb(n, d - 1) * (n - d + 1))
    for k, (t, rows) in enumerate(zip(_numbering(colors, d), _chain_rows(n, d))):
        r = _encode(roots[t], index)
        for slot, front, others in rows:
            chains[slot + ((r ^ front) & others).bit_count()] = k
    return chains


def _chain_covers(q: Cubillage) -> list[tuple[int, int]]:
    """The consecutive pairs (below, above) of the tunnel chains of q (_chains),
    as lex numbers of types: covers of its natural order that generate it."""
    chains = _chains(q)
    covers = list(zip(chains, chains[1:]))
    length = q.n - q.d + 1
    del covers[length - 1::length]  # the pairs that straddle two tunnels
    return covers


def natural_order(q: Cubillage) -> AdmissibleOrder:
    """The natural order on the cube types of q, cached on q: masks._mask_of
    certifies q, the tunnel chains are read off its roots (_chains), and
    their covers, sorted as number pairs, are closed on lex numbers.  Its
    antilex packets are the inversions of the certified mask, so no packet
    check runs.  Raises CubillageError when q fails the certificate."""
    if "natural_order" not in q._cache:
        inv = _mask_of(q)
        covers = _chain_covers(q)
        covers.sort()
        order = AdmissibleOrder.__new__(AdmissibleOrder)
        order._fill(q.colors, q.d, covers)
        order._inv = inv
        q._cache["natural_order"] = order
    return q._cache["natural_order"]


def _ideal(q: Cubillage, stack) -> frozenset[Colors]:
    """The stack as canonical types; ValueError unless it is an order ideal
    of the natural order of q."""
    stack = frozenset(colorset(t) for t in stack)
    if not natural_order(q).is_ideal(stack):
        raise ValueError("stack is not a downward closed set of cube types")
    return stack


def membrane_of_stack(q: Cubillage, stack) -> frozenset[Facet]:
    """The membrane swept out by an order ideal of cube types.

    Its plates are the internal facets whose below cube is in the stack and
    above cube is not, plus front boundary plates of cubes outside the stack
    and back boundary plates of cubes inside it.  They are the cubes the root
    rule builds one dimension down with the stack as inversion set (at d = 1,
    one point).  Certifies q by masks._mask_of.
    """
    return frozenset(itertools.starmap(Facet, _plates(q, _ideal(q, stack))))


def _plates(q: Cubillage, ideal) -> list[tuple[Colors, Colors]]:
    """(root, type) of the plates of membrane_of_stack, types in lex order,
    for a stack already known to be a canonical order ideal of q."""
    return _cubes(q.colors, q.d - 1, _mask(q.colors, q.d - 1, ideal.__contains__))


def plate_vertices(plates) -> frozenset[Colors]:
    """All vertex spectra of a plate collection."""
    return _spectra(plates)


def side_of_membrane(typ, membrane_vertices) -> str:
    """Locate the cube of a given type relative to a membrane.

    "before" when some membrane vertex meets the type in its top-alternating
    pattern {k_d, k_{d-2}, ...}, "after" for the shifted pattern
    {k_{d-1}, k_{d-3}, ...}.  Exactly one pattern occurs on an actual
    membrane; anything else raises.
    """
    t = colorset(typ)
    before_pat = tuple(sorted(t[::-1][::2]))
    after_pat = tuple(sorted(t[::-1][1::2]))
    hit_before = hit_after = False
    for v in membrane_vertices:
        cut = inter(v, t)
        if cut == before_pat:
            hit_before = True
        if cut == after_pat:
            hit_after = True
        if hit_before and hit_after:
            break
    if hit_before == hit_after:
        raise CubillageError(
            f"type {t}: membrane shows {'both' if hit_before else 'neither'} side patterns")
    return "before" if hit_before else "after"


def stack_of_membrane(q: Cubillage, plates) -> frozenset[Colors]:
    """Invert membrane_of_stack: by the root rule, T ∪ {c} with c above T
    is in the stack when c is in the root of the plate of type T.  Raises
    CubillageError when the plates are not a membrane of q or q fails the
    certificate of masks._mask_of."""
    plates = frozenset(plates)
    stack = frozenset(add(p.type, c) for p in plates for c in p.root if c > max(p.type, default=0))
    if not natural_order(q).is_ideal(stack):
        raise CubillageError("the stack read off the plates is not an order ideal")
    if frozenset(itertools.starmap(Facet, _plates(q, stack))) != plates:
        raise CubillageError("plates are not a membrane of this cubillage")
    return stack


def membrane_as_cubillage(q: Cubillage, plates) -> Cubillage:
    """Project a membrane along the viewing axis: plates become (d-1)-cubes."""
    return Cubillage(q.colors, q.d - 1, [(p.root, p.type) for p in plates])


def enumerate_stacks(q: Cubillage) -> list[frozenset[Colors]]:
    """Every stack; a distributive lattice under union and intersection.
    Certifies q by masks._mask_of."""
    return natural_order(q).ideals()


def find_flips(q: Cubillage) -> tuple[tuple[Colors, str], ...]:
    """All flippable parents with their direction, in lex order.

    A parent K, a (d+1)-subset of the colors, is flippable when toggling it
    in the inversion set keeps every packet through K met in a prefix or a
    suffix, that is, when no packet blocks it; the flip raises when K is not
    an inversion, else it lowers.  Read off the packet state q carries
    (masks._state).  Raises CubillageError when q fails the certificate of
    masks._mask_of."""
    inv, state = _state(q)
    free = _free(state)
    lowering = set(_sets(q.colors, q.d, free & inv))
    return tuple((parent, "lowering" if parent in lowering else "raising")
                 for parent in _sets(q.colors, q.d, free))


def apply_flip(q: Cubillage, parent) -> Cubillage:
    """Toggle the parent K in the inversion set: for each c in K, toggle c
    in the root of type K - {c}; no other cube changes.  The result carries
    its mask and packet state (masks._flipped), so flipping or listing
    the flips of it reads no packet away from K.  Raises ValueError when a
    packet through K blocks it or K is no (d+1)-subset of the colors, and
    CubillageError when q fails the certificate of masks._mask_of."""
    parent = colorset(parent)
    flipped = _flipped(q, parent)
    if flipped is None:
        raise ValueError(f"parent {parent} is not flippable")
    return flipped


def _cut(q: Cubillage, top: int) -> Cubillage:
    """q with every parent holding a color above the top-th one un-inverted."""
    inv, kept = _mask_of(q), q.colors[:top]
    return _cubillage_of_mask(q.colors, q.d, inv & _mask(q.colors, q.d, lambda k: k[-1] in kept))


def avalanche(q: Cubillage) -> Cubillage:
    """Move the whole top-color layer flush to the back boundary in one step:
    every parent holding the top color stops being an inversion.  Raises
    CubillageError when q fails the certificate of masks._mask_of."""
    return _cut(q, q.n - 1)


def standardize(q: Cubillage) -> tuple[Cubillage, ...]:
    """The canonical avalanche sequence from q down to the standard cubillage.

    Step j un-inverts every parent holding one of the top j colors, so the
    first entry is q itself and the last is standard(colors, d).  Raises
    CubillageError when q fails the certificate of masks._mask_of.
    """
    _mask_of(q)
    return (q,) + tuple(_cut(q, top) for top in range(q.n - 1, q.d - 1, -1))


def canonical_extension(qp: Cubillage) -> Cubillage:
    """Lift a cubillage one dimension up so that it becomes a membrane.

    The lift inverts a (d+2)-subset K exactly when K - max K is not an
    inversion of qp (masks._lift).  The stack of the membrane in the result
    is the inversion set of qp, and no lowering flip of the result stays
    inside that stack.  Its test oracle is the canonical flip walk, which
    records one cube per flip from qp down to the standard cubillage and up
    to the antistandard one.  Raises CubillageError when qp fails the
    certificate of masks._mask_of, ValueError on Z(d,d): Z(d,d+1) is empty.
    """
    below = set(_sets(qp.colors, qp.d, _mask_of(qp)))
    if qp.n == qp.d:
        raise ValueError(f"a lift to Z({qp.n},{qp.d + 1}) needs more than {qp.d} colors")
    return _cubillage_of_mask(qp.colors, qp.d + 1, _lift(qp.colors, qp.d + 1, below))


class Garland(NamedTuple):
    chords: dict[Colors, tuple[Colors, Colors]]
    mapping: dict[Colors, Colors]


def garland(q: Cubillage) -> Garland:
    """Tail-to-head chords of all cubes and the induced front-to-back bijection.

    The cube typed {t_1 < ... < t_d} has head root ∪ {t_d, t_{d-2}, ...} and
    tail root ∪ {t_{d-1}, t_{d-3}, ...}; chords concatenate into vertex
    disjoint paths from front-membrane vertices to back-membrane ones, and
    rim vertices stay put.
    """
    chords = {}
    next_of = {}
    heads = set()
    for cube in q.cubes:
        t = cube.type
        head = union(cube.root, t[::-1][::2])
        tail = union(cube.root, t[::-1][1::2])
        chords[t] = (tail, head)
        if tail in next_of or head in heads:
            raise CubillageError("chords do not form vertex disjoint paths")
        next_of[tail] = head
        heads.add(head)
    front = plate_vertices(boundary_plates(q.colors, q.d, "front"))
    back = plate_vertices(boundary_plates(q.colors, q.d, "back"))
    rim = front & back
    mapping = {}
    for v in sorted(front):
        if v in rim:
            if v in next_of or v in heads:
                raise CubillageError(f"rim vertex {v} lies on a chord")
            mapping[v] = v
            continue
        cur = v
        seen = {cur}
        while cur in next_of:
            cur = next_of[cur]
            if cur in seen:
                raise CubillageError("chords form a cycle")
            seen.add(cur)
        if cur not in back:
            raise CubillageError(f"garland path from {v} ends off the back membrane at {cur}")
        mapping[v] = cur
    if sorted(mapping.values()) != sorted(back):
        raise CubillageError("garland mapping is not a bijection onto the back vertices")
    return Garland(chords, mapping)
