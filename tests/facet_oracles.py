"""The facet-pairing forms of membrane_of_stack and expand, kept as test
oracles for their inversion-mask forms: a membrane is cut along the facets
between the stack and the rest, and an expansion grows each of its plates
into a cube."""

from zonocube import cubillage
from zonocube.colors import Colors, add
from zonocube.cubillage import Cubillage, Facet


def _pairing(q: Cubillage):
    """The facet maps of cubillage._pairing, cached on q as they were while
    the natural order read facets; the oracles ask for them once per stack."""
    if "pairing" not in q._cache:
        q._cache["pairing"] = cubillage._pairing(q)[:2]
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
    cubes = [(root if typ in stack else add(root, i), typ)
             for typ, root in q._root_by_type.items()]
    cubes += [(plate.root, add(plate.type, i)) for plate in _membrane(q, stack)]
    return Cubillage._trusted(add(q.colors, i), q.d, cubes)
