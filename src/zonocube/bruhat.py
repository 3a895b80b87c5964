"""Higher Bruhat enumeration over inversion-set bitmasks, the higher Bruhat
poset, and the slice map from cubillages to cyclic-polytope triangulations,
checked onto against a bistellar-flip search of those triangulations."""

from __future__ import annotations

import functools
import itertools
import json
import operator
from math import comb
from typing import NamedTuple

from .colors import Colors, _blocks, is_even, minus, subsets
# unused here, but bench/test_bench.py reaches them as bruhat.colorset and
# bruhat.find_flips
from .colors import colorset  # noqa: F401
from .cubillage import MAX_ENUMERATION_TYPES, Cubillage, CubillageError, ScaleGuardError
from .cubillage import _check_dimensions, _closure, _numbering, _vertex_count
from .geom import Realization, cyclic_polytope_volume, triangulation_volume, volume_check
from .masks import _blocking, _cubillage_of_mask, _free, _toggle, _toggles, _walk
from .order import find_flips  # noqa: F401
from .systems import _adjacency, _count_cliques, _separation_scale_guard, _split


# the default state cap of enumerate_cubillages, bruhat_poset and the CLI's --max-states
MAX_STATES = 200_000


def _masks(n: int, d: int, max_states: int) -> dict[int, int]:
    """The consistent inversion masks of Z(n,d), each mapped to its raising
    steps (the bits whose addition keeps it consistent), rank by rank, so
    every mask is listed after a mask that reaches it by a raising step.

    The search runs from the empty mask (the standard cubillage) by raising
    flips.  Complete because every non-standard cubillage admits a lowering
    flip.  Each mask of the rank at hand carries its packet state, which
    masks._blocking scans for the empty mask: a child takes its first
    parent's state through masks._toggle, the carry masks._flipped runs
    along one flip of a cubillage, and its raising steps are the unset bits
    masks._free reads as free.  Only two ranks of states are held.  Refuses
    when C(n,d) exceeds MAX_ENUMERATION_TYPES or the state count passes
    max_states.
    """
    _check_dimensions(n, d)
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    if comb(n, d) > MAX_ENUMERATION_TYPES:
        raise ScaleGuardError(f"C({n},{d}) = {comb(n, d)} exceeds the cap {MAX_ENUMERATION_TYPES}")
    through = _toggles(n, d)
    found, seen, rank = {}, 1, {0: _blocking(n, d, 0)}
    while rank:
        below, rank = rank, {}
        for inv, state in below.items():
            steps = found[inv] = _free(state) & ~inv
            while steps:
                b = steps & -steps
                steps ^= b
                up = inv | b
                if up in rank:
                    continue
                seen += 1
                if seen > max_states:
                    raise ScaleGuardError(f"state count passed the cap {max_states}")
                rank[up] = _toggle(state, through[b.bit_length() - 1])
    return found


def enumerate_cubillages(n: int, d: int, max_states: int = MAX_STATES) -> tuple[Cubillage, ...]:
    """All cubillages of Z(n,d), as the elements of the higher Bruhat order B(n,d).

    The consistent inversion masks come from the raising-flip search _masks,
    which refuses when C(n,d) exceeds MAX_ENUMERATION_TYPES or the state
    count passes max_states.  masks._walk carries each mask's type -> root
    dict, in type order, along the search's raising steps.  The masks are
    sorted canonically by the dict's roots: every cubillage of Z(n,d) has
    the same types, so that tuple orders as Cubillage.key does.  Each
    cubillage then adopts its dict.
    """
    tables = _walk(n, d, _masks(n, d, max_states), tables=True)
    colors = tuple(range(1, n + 1))
    return tuple(_cubillage_of_mask(colors, d, inv, tables[inv])
                 for inv in sorted(tables, key=lambda inv: tuple(tables[inv].values())))


def separated_system_count(n: int, d: int) -> int:
    """Independent count of maximum-size (d-1)-separated systems in [n].

    Every such system contains all peripheral sets, so the count equals the
    number of cliques of the residual size among the non-peripheral sets in
    the separation graph.  Must agree with len(enumerate_cubillages(n,d)).
    Refuses n above MAX_SEPARATION_N with ScaleGuardError before building
    the graph.
    """
    _check_dimensions(n, d)
    _separation_scale_guard(n)
    peripheral, codes = _split(n, d)
    adj = _adjacency(codes, lambda a, b: _blocks(a, b) <= d)
    return _count_cliques(adj, (1 << len(codes)) - 1, _vertex_count(n, d) - len(peripheral))


class BruhatPoset:
    """The higher Bruhat order B(n,d) on all cubillages of Z(n,d).

    Element i is held as its inversion mask masks[i], the consistent family
    of (d+1)-subsets of [n]; the constructor takes the masks with their
    raising steps, as _masks gives them.  The order is single-step inclusion
    (Manin-Schechtman 1989; Ziegler, Topology 1993): the covers are the
    raising steps, i.e. the raising flips, and the rank is the inversion
    count.  Elements are indexed in (rank, canonical key) order, the key
    being the roots in type order as in enumerate_cubillages.  Graded with
    the standard cubillage as unique minimum and the antistandard as unique
    maximum.

    The masks give len, ranks, covers, the minimal and maximal elements,
    is_graded and to_dot; elements (the cubillages) and the closure behind
    leq and join_failures are built on first access.
    """

    def __init__(self, n: int, d: int, steps: dict[int, int]):
        self.n = n
        self.d = d
        roots = _walk(n, d, steps)
        self.masks = tuple(sorted(steps, key=lambda inv: (inv.bit_count(), roots[inv])))
        self.ranks = tuple(inv.bit_count() for inv in self.masks)
        index = {inv: i for i, inv in enumerate(self.masks)}
        covers = []
        for i, inv in enumerate(self.masks):
            up = steps[inv]
            while up:
                b = up & -up
                up ^= b
                covers.append((i, index[inv | b]))
        self.covers = tuple(sorted(covers))

    @functools.cached_property
    def elements(self) -> tuple[Cubillage, ...]:
        masks, steps = self.masks, dict.fromkeys(self.masks, 0)
        for i, j in self.covers:  # masks in rank order: the walk meets a parent first
            steps[masks[i]] |= masks[j] ^ masks[i]
        tables, colors = _walk(self.n, self.d, steps, tables=True), tuple(range(1, self.n + 1))
        return tuple(_cubillage_of_mask(colors, self.d, inv, tables[inv]) for inv in masks)

    @functools.cached_property
    def _up(self) -> list[int]:
        return _closure(len(self.masks), self.covers)[1]

    def __len__(self):
        return len(self.masks)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] & (1 << j))

    def minimal_elements(self) -> tuple[int, ...]:
        above = set(j for _, j in self.covers)
        return tuple(i for i in range(len(self)) if i not in above)

    def maximal_elements(self) -> tuple[int, ...]:
        below = set(i for i, _ in self.covers)
        return tuple(i for i in range(len(self)) if i not in below)

    def is_graded(self) -> bool:
        return all(self.ranks[j] == self.ranks[i] + 1 for i, j in self.covers)

    def join_failures(self, limit: int = 1) -> list[tuple[int, int]]:
        """Pairs with no least upper bound, up to the limit.

        Elements are bit-indexed in rank order, so the lowest set bit of a
        common upper set is one minimal upper bound m; the join exists iff
        every other common upper bound sits above m.
        """
        out = []
        size = len(self)
        for i in range(size):
            for j in range(i + 1, size):
                common = self._up[i] & self._up[j]
                m = (common & -common).bit_length() - 1
                if common & ~self._up[m]:
                    out.append((i, j))
                    if len(out) >= limit:
                        return out
        return out

    def to_dot(self) -> str:
        lines = ["digraph bruhat {"]
        for i, rank in enumerate(self.ranks):
            lines.append(f'  q{i} [label="#{i} r{rank}"];')
        for i, j in self.covers:
            lines.append(f"  q{i} -> q{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def bruhat_poset(n: int, d: int, max_states: int = MAX_STATES) -> BruhatPoset:
    return BruhatPoset(n, d, _masks(n, d, max_states))


# ---------------------------------------------------------------------------
# the slice map to cyclic-polytope triangulations


class Triangulation(NamedTuple):
    colors: Colors
    d: int
    simplices: tuple[Colors, ...]

    def to_json(self) -> str:
        return json.dumps({
            "n": len(self.colors),
            "d": self.d,
            "simplices": [list(s) for s in self.simplices],
        })


def sec(q: Cubillage, realization: Realization | None = None) -> Triangulation:
    """Slice the cubillage at height one: cubes rooted at the origin become
    the simplices of a triangulation of the cyclic polytope.

    The result is certified by an exact volume identity against the
    evenness-rule facet fan; a mismatch means the input was corrupt.
    """
    simplices = tuple(sorted(t for t, r in q._root_by_type.items() if not r))
    if realization is None:
        realization = Realization(q.colors, q.d)
    got = triangulation_volume(simplices, realization)
    want = cyclic_polytope_volume(q.colors, q.d, realization)
    if got != want:
        raise CubillageError(f"slice volume {got} != cyclic polytope volume {want}")
    return Triangulation(q.colors, q.d, simplices)


def triangulation_shape_ok(t: Triangulation) -> bool:
    """Combinatorial triangulation checks for d <= 3 (volume aside)."""
    cs = t.colors
    if t.d == 2:
        pts = sorted(s for s in t.simplices)
        cur = cs[0]
        for a, b in pts:
            if a != cur:
                return False
            cur = b
        return cur == cs[-1]
    if t.d == 3:
        if len(t.simplices) != len(cs) - 2:
            return False
        edge_count: dict[tuple[int, int], int] = {}
        for s in t.simplices:
            for e in itertools.combinations(s, 2):
                edge_count[e] = edge_count.get(e, 0) + 1
        hull = {(cs[i], cs[i + 1]) for i in range(len(cs) - 1)} | {(cs[0], cs[-1])}
        return all(c == (1 if e in hull else 2) for e, c in edge_count.items())
    raise ValueError("shape checks only cover d = 2 and d = 3")


def _triangulations(n: int, d: int, max_states: int) -> set[tuple[Colors, ...]]:
    """The triangulations of the cyclic polytope C(n,d-1), as sorted tuples
    of d-subsets of [n], by bistellar flips from the slice of the standard
    cubillage: the d-subsets T with an even number of members of T above
    each color outside T.  Reads no mask and no cubillage.  A circuit, a
    (d+1)-subset Z = {z_1 < ... < z_{d+1}}, spans the polytope, so a
    triangulation holding one side {Z - z_i : i odd} or {Z - z_i : i even}
    flips to the other with no link to check; the flip graph is connected
    (Rambau 1997).  Refuses when the state count passes max_states."""
    colors = range(1, n + 1)
    circuits = [[minus(z, (c,)) for c in z] for z in subsets(colors, d + 1)]
    sides = [(frozenset(f[i::2]), frozenset(f[1 - i::2])) for f in circuits for i in (0, 1)]
    start = frozenset(t for t in subsets(colors, d)
                      if all(is_even(c, t) for c in colors if c not in t))
    found, todo = {start}, [start]
    while todo:
        tri = todo.pop()
        for flipped in ((tri - side) | other for side, other in sides if side <= tri):
            if flipped not in found:
                found.add(flipped)
                todo.append(flipped)
                if len(found) > max_states:
                    raise ScaleGuardError(f"state count passed the cap {max_states}")
    return {tuple(sorted(tri)) for tri in found}


def sec_surjectivity_experiment(n: int, d: int, max_states: int = MAX_STATES) -> dict:
    """Compare the image of sec over all cubillages of Z(n,d) with every
    triangulation of C(n,d-1), exactly at every d.  The image is read off
    the roots masks._walk carries (a simplex is a type with an empty root),
    so no cubillage is built; the universe comes from _triangulations, each
    member certified once by the volume identity.  Refuses as _masks does;
    raises CubillageError on a failed certificate or a slice outside the
    universe."""
    colors = tuple(range(1, n + 1))
    types = list(_numbering(colors, d))
    image = {tuple(itertools.compress(types, map(operator.not_, roots)))
             for roots in _walk(n, d, _masks(n, d, max_states)).values()}
    universe, realization = _triangulations(n, d, max_states), Realization(colors, d)
    if not all(volume_check(Triangulation(colors, d, t), realization) for t in universe):
        raise CubillageError("a triangulation of the flip search fails the volume identity")
    if not image <= universe:
        raise CubillageError(f"{len(image - universe)} slices are missing from the flip search")
    missed = sorted(universe - image)
    return {"n": n, "d": d, "image_size": len(image), "mode": "exact",
            "total": len(universe), "missed": missed, "surjective": not missed}
