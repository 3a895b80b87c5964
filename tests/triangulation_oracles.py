"""The triangulations of the cyclic polytope C(n,d-1) for d = 2 and d = 3,
enumerated directly, kept as test oracles for the bistellar-flip search
bruhat._triangulations: for d = 2 the subdivisions of a segment by any
subset of its inner points, for d = 3 the triangulations of a convex
polygon by the split at the apex over the edge (1, n)."""

import itertools

from zonocube.colors import Colors


def segment_subdivisions(n: int) -> set[tuple[Colors, ...]]:
    """All triangulations for d = 2: chains over any subset of inner points."""
    inner = range(2, n)
    out = set()
    for k in range(n - 1):
        for chosen in itertools.combinations(inner, k):
            stops = (1,) + chosen + (n,)
            out.add(tuple((stops[i], stops[i + 1]) for i in range(len(stops) - 1)))
    return out


def _polygon(lo: int, hi: int) -> list[tuple[Colors, ...]]:
    """The triangulations of the polygon on vertices lo..hi, as sorted tuples."""
    if hi - lo < 2:
        return [()]
    out = []
    for mid in range(lo + 1, hi):
        for left in _polygon(lo, mid):
            for right in _polygon(mid, hi):
                out.append(tuple(sorted(left + ((lo, mid, hi),) + right)))
    return out


def polygon_triangulations(n: int) -> set[tuple[Colors, ...]]:
    """All triangulations of the convex polygon on vertices 1..n (d = 3)."""
    return set(_polygon(1, n))
