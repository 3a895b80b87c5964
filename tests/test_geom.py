import itertools
from fractions import Fraction

import pytest

from zonocube.colors import is_even
from zonocube.cubillage import Cubillage, antistandard, facet_sides, is_valid, standard
from zonocube.bruhat import enumerate_cubillages, sec
from zonocube.geom import (
    Realization,
    cyclic_polytope_volume,
    det_exact,
    det_sign,
    facet_visible_oracle,
    gale_facets,
    overlap_free,
    render_svg,
    triangulation_volume,
    zonotope_volume,
)


def test_det_exact_basics():
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[2]]) == 2
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1], [1, 0]]) == -1
    vandermonde = [[t ** p for t in (1, 2, 3, 4)] for p in range(4)]
    assert det_exact(vandermonde) == 12  # prod of pairwise differences


def test_det_exact_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_exact(rows) == Fraction(1, 14) - Fraction(1, 15)


def test_det_sign_examples():
    assert det_sign((1, 2, 3), 4, Realization(range(1, 5), 4)) == 1
    real3 = Realization(range(1, 6), 3)
    assert det_sign((2, 4), 3, real3) == -1
    assert not is_even(3, (2, 4))


def test_det_sign_antisymmetry():
    real = Realization(range(1, 6), 3)
    assert real.det((1, 3, 5)) == -real.det((3, 1, 5))
    assert real.det((1, 3, 5)) == real.det((3, 5, 1))


def test_vertex_coordinates():
    real = Realization((1, 2, 3), 2)
    assert real.point(()) == (0, 0)
    assert real.point((1, 2, 3)) == (3, 6)
    assert real.point((2,)) == (1, 2)


def test_reparameterization_invariance():
    plain = Realization(range(1, 8), 4)
    doubling = Realization(range(1, 8), 4, t_params=[1, 2, 4, 8, 16, 32, 64])
    rational = Realization(range(1, 8), 4,
                           t_params=[Fraction(-5, 2), Fraction(-1, 3), 0, 1,
                                     Fraction(7, 2), 10, 11])
    for j in itertools.combinations(range(1, 8), 3):
        for i in range(1, 8):
            if i in j:
                continue
            signs = {det_sign(j, i, r) for r in (plain, doubling, rational)}
            assert len(signs) == 1


def test_realization_rejects_disorder():
    with pytest.raises(ValueError):
        Realization((1, 2, 3), 2, t_params=[3, 2, 1])
    with pytest.raises(ValueError):
        Realization((1, 2), 2, t_params=[1])


def test_facet_visibility_matches_parity_rule():
    for d in range(1, 5):
        for n in range(d, 7):
            real = Realization(range(1, n + 1), d)
            for q in (standard(range(1, n + 1), d), antistandard(range(1, n + 1), d)):
                for cube in q.cubes:
                    for t, (vis, invis) in facet_sides(cube).items():
                        j = tuple(x for x in cube.type if x != t)
                        assert facet_visible_oracle(real, j, t, shifted=vis.root != cube.root)
                        assert not facet_visible_oracle(real, j, t, shifted=invis.root != cube.root)


def test_ray_entry_exit_for_unit_square():
    # Q=((),(1,2)): a vertical ray enters through ((),(1)) and ((1,),(2)),
    # leaves through ((),(2)) and ((2,),(1))
    real = Realization((1, 2), 2)
    assert facet_visible_oracle(real, (1,), 2, shifted=False)
    assert facet_visible_oracle(real, (2,), 1, shifted=True)
    assert not facet_visible_oracle(real, (2,), 1, shifted=False)
    assert not facet_visible_oracle(real, (1,), 2, shifted=True)


def test_overlap_oracle_agrees_with_validate():
    for n in range(2, 6):
        for q in enumerate_cubillages(n, 2):
            assert is_valid(q)
            assert overlap_free(q)


def test_overlap_oracle_detects_tampering():
    bad = Cubillage((1, 2, 3), 2, [((), (1, 2)), ((), (2, 3)), ((), (1, 3))])
    assert not overlap_free(bad)
    assert not is_valid(bad)


def test_volume_identities():
    real = Realization(range(1, 6), 3)
    q = standard(range(1, 6), 3)
    assert zonotope_volume(real) == sum(abs(real.det(c.type)) for c in q.cubes)
    tri = sec(q)
    assert triangulation_volume(tri.simplices, real) == cyclic_polytope_volume(range(1, 6), 3, real)


def test_gale_facets_pentagon():
    assert set(gale_facets(range(1, 6), 3)) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}


def test_gale_facets_segment():
    assert set(gale_facets(range(1, 6), 2)) == {(1,), (5,)}


def test_gale_facets_are_cached_and_immutable():
    first = gale_facets(range(1, 8), 4)
    assert gale_facets((7, 6, 5, 4, 3, 2, 1), 4) == first
    with pytest.raises(TypeError):
        first[0] = (1, 2, 3)
    with pytest.raises(TypeError):
        first[0][0] = 9
    assert gale_facets(range(1, 8), 4) == first
    real = Realization(range(1, 8), 4)
    assert cyclic_polytope_volume(range(1, 8), 4, real) == cyclic_polytope_volume(
        range(1, 8), 4, real)


# ------------------------------------------------------------------ SVG

def test_render_svg_standard_3_2():
    svg = render_svg(standard((1, 2, 3), 2), labels=True)
    assert svg.count("<polygon") == 3
    assert ">2</text>" in svg  # the interior vertex label
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_render_svg_deterministic():
    q = standard(range(1, 6), 2)
    a = render_svg(q, labels=True, arrows=True)
    b = render_svg(q, labels=True, arrows=True)
    assert a == b


def test_render_svg_arrow_overlay_exact_positions():
    from zonocube.order import natural_order

    q = standard(range(1, 6), 2)
    svg = render_svg(q, arrows=True)
    assert svg.count('class="arrow"') == len(natural_order(q).relations)


def test_render_svg_membrane_overlay():
    from zonocube.order import membrane_of_stack

    q = standard((1, 2, 3), 2)
    plates = membrane_of_stack(q, [(1, 2)])
    svg = render_svg(q, membrane=plates)
    assert svg.count('class="membrane"') == 3


def test_render_svg_rejects_higher_dim():
    with pytest.raises(ValueError):
        render_svg(standard(range(1, 5), 3))


@pytest.mark.parametrize("size", [(0, 0), (10, 0), (1, 1), (60, 480), (640, 60)])
def test_render_svg_refuses_a_viewport_inside_its_margins(size):
    with pytest.raises(ValueError, match="margins"):
        render_svg(standard((1, 2, 3), 2), size=size)


def test_volume_check_dispatch():
    from zonocube.geom import volume_check

    real = Realization(range(1, 6), 3)
    assert volume_check(standard(range(1, 6), 3), real)
    assert volume_check(sec(standard(range(1, 6), 3)), real)
    with pytest.raises(TypeError):
        volume_check(42, real)
