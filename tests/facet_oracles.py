"""The facet-pairing forms of validate, the vertex spectra, membrane_of_stack
and expand, kept as test oracles for their position-code and inversion-mask
forms: the facets are paired as tuples from the public facet_sides, every
face spectrum is a sorted tuple, a membrane is cut along the facets between
the stack and the rest, and an expansion grows each of its plates into a
cube."""

import itertools

from zonocube.colors import Colors, add, inter, subsets, union
from zonocube.cubillage import (
    Cube,
    Cubillage,
    CubillageError,
    Facet,
    _closure,
    _vertex_count,
    boundary_plates,
    facet_sides,
)


def _face_spectra(faces):
    """(root ∪ S, S, type) for every face (root, type) and every subset S of its type."""
    for root, typ in faces:
        # in a valid face root and type are disjoint sets: then root + S has
        # no repeats and a sort makes the union
        root = tuple(root)
        disjoint = len(set(root).union(typ)) == len(root) + len(typ)
        for k in range(len(typ) + 1):
            for s in itertools.combinations(typ, k):
                yield tuple(sorted(root + s)) if disjoint else union(root, s), s, typ


def vertices_oracle(q: Cubillage) -> frozenset[Colors]:
    """Cubillage.vertices() as one sorted tuple per face spectrum."""
    return frozenset(v for v, _, _ in _face_spectra((r, t) for t, r in q._root_by_type.items()))


def _facet_pairing(q: Cubillage):
    """Facet incidence maps, facet -> owning type, per side, and the sorted
    pairs (below, above) of types sharing a facet invisible below, visible
    above.  Raises on clashes."""
    visible = {}
    invisible = {}
    for typ, root in q._root_by_type.items():
        for vis, invis in facet_sides(Cube(root, typ)).values():
            for table, facet in ((visible, vis), (invisible, invis)):
                if facet in table:
                    raise CubillageError(
                        f"facet {facet} claimed twice on the same side by {table[facet]} and {typ}")
                table[facet] = typ
    covers = sorted((below, visible[facet]) for facet, below in invisible.items()
                    if facet in visible)
    return visible, invisible, tuple(covers)


def validate_oracle(q: Cubillage):
    """validate() on facet tuples, its vertex count from vertices_oracle."""
    n, d = q.n, q.d
    if n < d:
        return f"fewer colors ({n}) than the dimension ({d})"
    expected = set(subsets(q.colors, d))
    have = set(q._root_by_type)
    if have != expected:
        missing = sorted(expected - have)
        extra = sorted(have - expected)
        return f"type map is not a bijection (missing {missing[:3]}, extra {extra[:3]})"
    colors = set(q.colors)
    for typ, root in q._root_by_type.items():
        if inter(root, typ) or any(c not in colors for c in root):
            return f"cube {typ} has invalid root {root}"
    try:
        visible, invisible, covers = _facet_pairing(q)
    except CubillageError as exc:
        return str(exc)
    front = boundary_plates(q.colors, d, "front")
    back = boundary_plates(q.colors, d, "back")
    for facet, typ in invisible.items():
        if facet not in back and facet not in visible:
            return f"invisible facet {facet} of cube {typ} is unmatched"
    for facet, typ in visible.items():
        if facet not in front and facet not in invisible:
            return f"visible facet {facet} of cube {typ} is unmatched"
    for plate in front:
        if plate not in visible:
            return f"front plate {plate} not covered"
    for plate in back:
        if plate not in invisible:
            return f"back plate {plate} not covered"
    number = {t: k for k, t in enumerate(q.types())}
    if _closure(len(number), [(number[a], number[b]) for a, b in covers]) is None:
        return "precedence relation between cubes has a cycle"
    want = _vertex_count(n, d)
    vertices = vertices_oracle(q)
    if len(vertices) != want:
        return f"vertex count {len(vertices)} != C({n},<={d}) = {want}"
    return None


def _pairing(q: Cubillage):
    """The facet maps of _facet_pairing, cached on q as they were while the
    natural order read facets; the oracles ask for them once per stack."""
    if "pairing" not in q._cache:
        q._cache["pairing"] = _facet_pairing(q)[:2]
    return q._cache["pairing"]


def _membrane(q: Cubillage, stack: frozenset[Colors]) -> frozenset[Facet]:
    """membrane_of_stack() for a stack of canonical types known to be an order ideal."""
    visible, invisible = _pairing(q)
    plates = set()
    for facet, below in invisible.items():
        above = visible.get(facet)
        if above is None:
            if below in stack:
                plates.add(facet)
        elif below in stack and above not in stack:
            plates.add(facet)
    for facet, above in visible.items():
        if facet not in invisible and above not in stack:
            plates.add(facet)
    return frozenset(plates)


def _expand(q: Cubillage, stack: frozenset[Colors], i: int) -> Cubillage:
    """expand() for a canonical order ideal stack and a color above all of q's."""
    roots = {typ: root if typ in stack else add(root, i) for typ, root in q._root_by_type.items()}
    roots.update((add(plate.type, i), plate.root) for plate in _membrane(q, stack))
    return Cubillage._adopt(add(q.colors, i), q.d, roots)
