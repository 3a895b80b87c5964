"""Exact moment-curve realization and the geometric oracles.

Every decision here is made in exact integer or rational arithmetic; floats
never appear.  The realization places color i at v_i = (1, t_i, ..., t_i^{d-1})
with t_1 < ... < t_n (default t_i = i), so every increasing d-tuple of colors
spans a positively oriented basis.  On top of that come determinant signs,
vertex coordinates, volume checks for tilings and triangulations, an exact
tile-overlap test for d = 2, and the SVG renderer.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .colors import Colors, _check_dimension, colorset, subsets
from .order import natural_order


def det_exact(rows):
    """Determinant by fraction-free (Bareiss) elimination; exact on int/Fraction."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0 * prev
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num // prev if isinstance(num, int) and isinstance(prev, int) else num / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Realization:
    """Moment-curve vectors for a fixed color set and dimension.

    t_params, when given, lists the curve parameters aligned with the sorted
    colors; they may be ints or Fractions but must increase strictly.
    """

    def __init__(self, colors, d: int, t_params=None):
        self.colors: Colors = colorset(colors)
        self.d = _check_dimension(d)
        if t_params is None:
            ts = list(self.colors)
        else:
            ts = list(t_params)
            if len(ts) != len(self.colors):
                raise ValueError("t_params must align with the sorted colors")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("curve parameters must increase strictly")
        self._t = dict(zip(self.colors, ts))

    def vector(self, i: int):
        t = self._t[i]
        return tuple(t ** p for p in range(self.d))

    def point(self, xs):
        """Coordinates of the lattice point Σ_{i∈xs} v_i; the origin for xs = ()."""
        coords = [0] * self.d
        for i in xs:
            v = self.vector(i)
            for p in range(self.d):
                coords[p] += v[p]
        return tuple(coords)

    def det(self, cols):
        """det of the matrix whose columns are v_i for i in cols (given order)."""
        vs = [self.vector(i) for i in cols]
        return det_exact([[v[r] for v in vs] for r in range(self.d)])


def det_sign(js, i: int, realization: Realization) -> int:
    """Exact sign of det(v_{j_1}, ..., v_{j_{d-1}}, v_i) for sorted js."""
    js = colorset(js)
    if len(js) != realization.d - 1:
        raise ValueError(f"need {realization.d - 1} spanning colors, got {js}")
    if i in js:
        raise ValueError(f"color {i} is a member of {js}")
    return _sign(realization.det(js + (i,)))


def facet_visible_oracle(realization: Realization, j_type, t: int, shifted: bool) -> bool:
    """Geometric visibility of a cube facet, decided from determinant signs.

    The facet spans v_{j_type} and the cube extends from it along v_t (away
    when shifted, towards when not).  Visible means a line in direction e_d
    enters the cube through this facet: e_d and the cube body must lie on the
    same side of the facet's hyperplane.
    """
    js = colorset(j_type)
    side_t = _sign(realization.det(js + (t,)))
    e_d = tuple(0 if p < realization.d - 1 else 1 for p in range(realization.d))
    vs = [realization.vector(j) for j in js] + [e_d]
    side_e = _sign(det_exact([[v[r] for v in vs] for r in range(realization.d)]))
    cube_side = -side_t if shifted else side_t
    return side_e == cube_side


def zonotope_volume(realization: Realization):
    """Σ |det v_D| over all d-subsets D: the exact volume of the zonotope."""
    return sum(abs(realization.det(ds)) for ds in subsets(realization.colors, realization.d))


def cubillage_volume(cubillage, realization: Realization):
    return sum(abs(realization.det(cube.type)) for cube in cubillage.cubes)


def gale_facets(colors, d: int):
    """Facet vertex sets of the cyclic polytope on the given colors.

    The polytope is the slice of the zonotope at height 1; it has dimension
    d-1 and its facets are the (d-1)-subsets S satisfying the evenness rule:
    any two colors outside S enclose an even number of members of S.  A
    tuple of tuples, cached per canonical colors and d.
    """
    return _gale_facets(colorset(colors), d)


@functools.lru_cache(maxsize=256)
def _gale_facets(cs: Colors, d: int) -> tuple[Colors, ...]:
    out = []
    for s in subsets(cs, d - 1):
        ss = set(s)
        rest = [c for c in cs if c not in ss]
        if all(
            sum(1 for x in s if i < x < j) % 2 == 0
            for i, j in itertools.combinations(rest, 2)
        ):
            out.append(s)
    return tuple(out)


def cyclic_polytope_volume(colors, d: int, realization: Realization):
    """Exact (d-1)!-scaled volume of the cyclic polytope, via the fan at the
    first vertex over the evenness-rule facets."""
    cs = colorset(colors)
    base = cs[0]
    total = 0
    for facet in _gale_facets(cs, d):
        if base not in facet:
            total += abs(realization.det((base,) + facet))
    return total


def triangulation_volume(simplices, realization: Realization):
    """Σ |det v_T| over the simplices; equals cyclic_polytope_volume for a
    genuine triangulation of the slice polytope."""
    return sum(abs(realization.det(colorset(t))) for t in simplices)


def volume_check(obj, realization: Realization) -> bool:
    """Exact volume identity for a cubillage or a triangulation.

    A cubillage must fill the zonotope, a triangulation the cyclic polytope;
    everything is compared as integers or rationals, never floats.
    """
    if hasattr(obj, "cubes"):
        return cubillage_volume(obj, realization) == zonotope_volume(realization)
    if hasattr(obj, "simplices"):
        return triangulation_volume(obj.simplices, realization) == \
            cyclic_polytope_volume(obj.colors, obj.d, realization)
    raise TypeError(f"cannot volume-check {type(obj).__name__}")


# ---------------------------------------------------------------------------
# exact d=2 overlap oracle


def _axes(quad):
    for a, b in zip(quad, quad[1:] + quad[:1]):
        yield (a[1] - b[1], b[0] - a[0])


def _quads_interiors_intersect(qa, qb) -> bool:
    # separating axis test for convex quadrilaterals, exact over ints/Fractions
    for nx, ny in itertools.chain(_axes(qa), _axes(qb)):
        pa = [nx * x + ny * y for x, y in qa]
        pb = [nx * x + ny * y for x, y in qb]
        if max(pa) <= min(pb) or max(pb) <= min(pa):
            return False
    return True


def rhombus_corners(cube, realization: Realization):
    """The four corners of a d=2 tile in cyclic boundary order."""
    r = cube.root
    t1, t2 = cube.type
    p0 = realization.point(r)
    v1 = realization.vector(t1)
    v2 = realization.vector(t2)
    p1 = (p0[0] + v1[0], p0[1] + v1[1])
    p3 = (p0[0] + v2[0], p0[1] + v2[1])
    p2 = (p1[0] + v2[0], p1[1] + v2[1])
    return (p0, p1, p2, p3)


def overlap_free(cubillage, realization: Realization | None = None) -> bool:
    """Exact check that no two tiles of a d=2 cubillage share interior points."""
    if cubillage.d != 2:
        raise ValueError("overlap oracle only supports d = 2")
    if realization is None:
        realization = Realization(cubillage.colors, 2)
    quads = [rhombus_corners(c, realization) for c in cubillage.cubes]
    boxes = [
        (min(p[0] for p in q), max(p[0] for p in q), min(p[1] for p in q), max(p[1] for p in q))
        for q in quads
    ]
    for i, j in itertools.combinations(range(len(quads)), 2):
        bi, bj = boxes[i], boxes[j]
        if bi[1] <= bj[0] or bj[1] <= bi[0] or bi[3] <= bj[2] or bj[3] <= bi[2]:
            continue
        if _quads_interiors_intersect(quads[i], quads[j]):
            return False
    return True


# ---------------------------------------------------------------------------
# SVG rendering (d = 2)

_SVG_STYLE = (
    "polygon{fill:#f3ecd9;stroke:#2b2b2b;stroke-width:1.2}"
    "line.arrow{stroke:#b03030;stroke-width:1.6;marker-end:url(#ah)}"
    "polyline.membrane{fill:none;stroke:#2050b0;stroke-width:3.4;opacity:0.8}"
    "text{font-family:monospace;font-size:11px;fill:#222}"
)


def _fmt(x) -> str:
    # exact decimal with three places, no float anywhere
    scaled = round(Fraction(x) * 1000)
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), 1000)
    return f"{sign}{ip}" if fp == 0 else f"{sign}{ip}.{fp:03d}".rstrip("0")


def render_svg(cubillage, size=(640, 480), labels=False, arrows=False, membrane=None,
               realization: Realization | None = None) -> str:
    """Render a d=2 cubillage to an SVG document string.

    Tiles are drawn from exact rational coordinates scaled into the viewport;
    output is byte-deterministic for a fixed input.  The viewing direction
    runs left to right, so the front boundary is the left rim.  Optional
    overlays: vertex spectrum labels, precedence arrows between adjacent
    tiles, and a membrane polyline given as an iterable of plate facets.
    Refuses a width or height of 60 or less, which the 30-pixel margins fill.
    """
    if cubillage.d != 2:
        raise ValueError("SVG rendering only supports d = 2")
    if realization is None:
        realization = Realization(cubillage.colors, 2)
    width, height = size
    margin = Fraction(30)
    if min(width, height) <= 2 * margin:
        raise ValueError(f"viewport {width}x{height} leaves no room inside the 30-pixel margins")

    def plane(pt):
        # screen x along e_2 (the viewing axis), screen y by zonogon height
        return Fraction(pt[1]), Fraction(pt[0])

    corners = {cube.type: [plane(p) for p in rhombus_corners(cube, realization)] for cube in cubillage.cubes}
    all_pts = [p for quad in corners.values() for p in quad] or [(Fraction(0), Fraction(0))]
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    spanx = max(xs) - min(xs) or Fraction(1)
    spany = max(ys) - min(ys) or Fraction(1)
    scale = min((Fraction(width) - 2 * margin) / spanx, (Fraction(height) - 2 * margin) / spany)

    def screen(p):
        sx = margin + (p[0] - min(xs)) * scale
        sy = Fraction(height) - margin - (p[1] - min(ys)) * scale
        return _fmt(sx), _fmt(sy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>{_SVG_STYLE}</style>",
        '<defs><marker id="ah" markerWidth="7" markerHeight="7" refX="6" refY="3" orient="auto">'
        '<path d="M0,0 L6,3 L0,6 z" fill="#b03030"/></marker></defs>',
    ]
    for cube in cubillage.cubes:
        pts = " ".join(",".join(screen(p)) for p in corners[cube.type])
        parts.append(f'<polygon points="{pts}"/>')
    if membrane is not None:
        for plate in sorted(membrane):
            a = plane(realization.point(plate.root))
            b = plane(realization.point(plate.root + plate.type))
            (x1, y1), (x2, y2) = screen(a), screen(b)
            parts.append(f'<polyline class="membrane" points="{x1},{y1} {x2},{y2}"/>')
    if arrows:
        centers = {}
        for cube in cubillage.cubes:
            quad = corners[cube.type]
            cx = sum(p[0] for p in quad) / 4
            cy = sum(p[1] for p in quad) / 4
            centers[cube.type] = (cx, cy)
        for below, above in natural_order(cubillage).relations:
            (x1, y1), (x2, y2) = screen(centers[below]), screen(centers[above])
            parts.append(f'<line class="arrow" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    if labels:
        for spec in sorted(cubillage.vertices()):
            x, y = screen(plane(realization.point(spec)))
            text = "".join(map(str, spec)) if spec else "0"
            parts.append(f'<text x="{x}" y="{y}">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
