import itertools
import json
import random
import tracemalloc
from math import comb

import pytest
from facet_oracles import _face_spectra

from zonocube.bruhat import enumerate_cubillages
from zonocube.colors import is_r_separated, union
from zonocube.cubillage import (
    Cube,
    Cubillage,
    CubillageError,
    Facet,
    ScaleGuardError,
    _insert,
    _spectra,
    antistandard,
    boundary_plates,
    central_symmetry,
    contract,
    edge_graph,
    embed_subcubillage,
    expand,
    expand_at_back,
    expand_at_front,
    facet_sides,
    is_valid,
    partition,
    point_cubillage,
    reduce,
    snakes,
    standard,
    tunnel,
    validate,
)
from zonocube.geom import Realization
from zonocube.order import (
    AdmissibleOrder,
    apply_flip,
    find_flips,
    membrane_of_stack,
    plate_vertices,
)


def crange(n):
    return tuple(range(1, n + 1))


def binom_leq(n, d):
    return sum(comb(n, k) for k in range(d + 1))


# ------------------------------------------------------------ facet sides

def test_facet_sides_square():
    sides = facet_sides(Cube((), (1, 2)))
    assert sides[1] == (Facet((1,), (2,)), Facet((), (2,)))
    assert sides[2] == (Facet((), (1,)), Facet((2,), (1,)))


def test_half_facets_visible():
    for d in range(1, 5):
        for n in range(d, 7):
            q = standard(crange(n), d)
            for cube in q.cubes:
                sides = facet_sides(cube)
                assert len(sides) == d
                vis = {v for v, _ in sides.values()}
                invis = {i for _, i in sides.values()}
                assert len(vis) == len(invis) == d
                assert vis.isdisjoint(invis)


# -------------------------------------------------------- boundary plates

def test_boundary_plates_square():
    assert boundary_plates((1, 2), 2, "front") == frozenset(
        {Facet((), (1,)), Facet((1,), (2,))})
    assert boundary_plates((1, 2), 2, "back") == frozenset(
        {Facet((2,), (1,)), Facet((), (2,))})


def test_boundary_plate_counts():
    for d in range(1, 5):
        for n in range(d, 9):
            front = boundary_plates(crange(n), d, "front")
            back = boundary_plates(crange(n), d, "back")
            assert len(front) + len(back) == 2 * comb(n, d - 1)


def test_peripheral_vertex_count():
    for d in range(1, 5):
        for n in range(d, 9):
            front = boundary_plates(crange(n), d, "front")
            back = boundary_plates(crange(n), d, "back")
            rim = plate_vertices(front) | plate_vertices(back)
            assert len(rim) == 2 * binom_leq(n - 1, d - 1)


def test_boundary_plates_rejects():
    with pytest.raises(ValueError):
        boundary_plates((1,), 2, "front")
    with pytest.raises(ValueError):
        boundary_plates((1, 2), 2, "left")


# ---------------------------------------------------- standard cubillages

def test_standard_3_2_cubes():
    q = standard((1, 2, 3), 2)
    assert set(q.cubes) == {Cube((), (1, 2)), Cube((), (2, 3)), Cube((2,), (1, 3))}
    inner = q.vertices() - plate_vertices(boundary_plates((1, 2, 3), 2, "front")) \
        - plate_vertices(boundary_plates((1, 2, 3), 2, "back"))
    assert inner == {(2,)}


def test_antistandard_3_2_interior():
    q = antistandard((1, 2, 3), 2)
    inner = q.vertices() - plate_vertices(boundary_plates((1, 2, 3), 2, "front")) \
        - plate_vertices(boundary_plates((1, 2, 3), 2, "back"))
    assert inner == {(1, 3)}


def test_capsid_interior_spectra():
    # standard capsid keeps {d, d-2, ...}; antistandard keeps {d+1, d-1, ...}
    for d in range(1, 6):
        n = d + 1
        per = plate_vertices(boundary_plates(crange(n), d, "front")) | \
            plate_vertices(boundary_plates(crange(n), d, "back"))
        st_inner = standard(crange(n), d).vertices() - per
        an_inner = antistandard(crange(n), d).vertices() - per
        assert st_inner == {tuple(sorted(range(d, 0, -2)))}
        assert an_inner == {tuple(sorted(range(d + 1, 0, -2)))}


def test_standard_counts():
    q = standard(crange(5), 2)
    assert len(q) == 10
    assert len(q.vertices()) == 16


def test_standard_requires_enough_colors():
    with pytest.raises(ValueError):
        standard((1,), 2)
    with pytest.raises(ValueError):
        antistandard((1, 2), 0)


def test_standard_guards_a_range_before_listing_it():
    # two million colors would take about 100 MB as a tuple
    tracemalloc.start()
    try:
        for build in (standard, antistandard):
            with pytest.raises(ScaleGuardError):
                build(range(1, 2_000_001), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    with pytest.raises(ValueError):
        standard(range(1, 3), 3)
    assert standard(range(1, 5), 2) == standard((4, 2, 3, 1), 2)


def standard_oracle(colors, d):
    """The standard cubillage by repeated top-color expansion along the back."""
    cs = tuple(sorted(colors))
    if len(cs) == d:
        return Cubillage(cs, d, [((), cs)])
    inner = standard_oracle(cs[:-1], d)
    return expand(inner, inner.types(), cs[-1])


def antistandard_oracle(colors, d):
    """The antistandard cubillage by repeated top-color expansion along the front."""
    cs = tuple(sorted(colors))
    if len(cs) == d:
        return Cubillage(cs, d, [((), cs)])
    return expand(antistandard_oracle(cs[:-1], d), [], cs[-1])


@pytest.mark.parametrize("colors", [crange(n) for n in range(1, 10)]
                         + [(2, 3, 5, 8, 9), (1, 4, 6, 7, 10, 12)])
def test_parity_roots_match_recursive_oracles(colors):
    for d in range(1, len(colors) + 1):
        assert standard(colors, d) == standard_oracle(colors, d)
        assert antistandard(colors, d) == antistandard_oracle(colors, d)


def test_counting_identities_full_grid():
    for d in range(1, 5):
        for n in range(d, 9):
            for q in (standard(crange(n), d), antistandard(crange(n), d)):
                assert len(q) == comb(n, d)
                assert len(q.vertices()) == binom_leq(n, d)
                for i in q.colors:
                    assert len(partition(q, i)) == comb(n - 1, d - 1)
                for dd in itertools.combinations(q.colors, d - 1):
                    assert len(tunnel(q, dd)) == n - d + 1


# ---------------------------------------------------------------- validate

def test_validate_constructions():
    for d in range(1, 5):
        for n in range(d, 9):
            assert validate(standard(crange(n), d)) is None
            assert validate(antistandard(crange(n), d)) is None


def test_validate_tampered_root():
    q = standard((1, 2, 3), 2)
    cubes = [(c.root, c.type) for c in q.cubes]
    bad = Cubillage((1, 2, 3), 2, [(r if t != (1, 3) else (1,), t) for r, t in cubes])
    assert validate(bad) is not None
    worse = Cubillage((1, 2, 3), 2, [(r if t != (1, 3) else (), t) for r, t in cubes])
    diag = validate(worse)
    assert diag is not None and "facet" in diag


def test_validate_missing_type():
    bad = Cubillage((1, 2, 3), 2, [((), (1, 2)), ((), (2, 3))])
    assert "bijection" in validate(bad)


def test_validate_flip_closure():
    from zonocube.order import apply_flip, find_flips

    for q in enumerate_cubillages(4, 2):
        for parent, _ in find_flips(q):
            assert validate(apply_flip(q, parent)) is None


# ------------------------------------------------------ vertices / snakes

def test_vertices_standard_are_intervals():
    assert standard((1, 2, 3), 2).vertices() == {
        (), (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)}


def test_vertices_standard_d1_prefixes():
    for n in range(1, 7):
        expected = {tuple(range(1, k + 1)) for k in range(n + 1)}
        assert standard(crange(n), 1).vertices() == expected


def face_spectra_union_form(faces):
    """_face_spectra with every spectrum built by colors.union."""
    return [(union(root, s), s, typ) for root, typ in faces
            for k in range(len(typ) + 1) for s in itertools.combinations(typ, k)]


def test_face_spectra_match_the_union_form():
    face_lists = [[(r, t) for t, r in q._root_by_type.items()]
                  for n, d in ((5, 2), (6, 3), (7, 4)) for q in enumerate_cubillages(n, d)]
    face_lists.append(sorted(boundary_plates(crange(6), 3, "front")))
    # hand-made faces: roots that meet their types, a repeated color, a list root
    face_lists.append([((1, 3), (3, 4)), ((2, 5), (1, 2, 5)), ((4, 4), (1, 2)),
                       ((), (2, 2)), ([3], (1, 2))])
    for faces in face_lists:
        assert list(_face_spectra(faces)) == face_spectra_union_form(faces)
        assert _spectra(faces) == {v for v, _, _ in face_spectra_union_form(faces)}


def test_standard_spectra_interval_profile():
    # standard spectra are exactly I_{d-1} ∪ I_{d-3} ∪ ... over splittings of
    # [n] into d+1 consecutive intervals
    def profile(n, d):
        out = set()
        for cuts in itertools.combinations_with_replacement(range(n + 1), d):
            stops = (0,) + cuts + (n,)
            intervals = [tuple(range(stops[i] + 1, stops[i + 1] + 1)) for i in range(d + 1)]
            spec = []
            idx = d - 1
            while idx >= 0:
                spec.extend(intervals[idx])
                idx -= 2
            out.add(tuple(sorted(spec)))
        return out

    for d in range(1, 4):
        for n in range(d, 7):
            assert standard(crange(n), d).vertices() == profile(n, d)


def test_snake_exists_and_colors_bijective():
    q = standard((1, 2, 3), 2)
    all_snakes = snakes(q)
    assert (1, 2, 3) in all_snakes
    for q in enumerate_cubillages(4, 2):
        for path in snakes(q):
            assert len(path) == 4
            assert sorted(path) == [1, 2, 3, 4]


def test_edge_count_square():
    q = standard((1, 2), 2)
    assert sum(len(v) for v in edge_graph(q).values()) == 4


# --------------------------------------------------------- reduce / expand

def test_reduce_standard():
    red = reduce(standard((1, 2, 3), 2), 3)
    assert red.cubillage == standard((1, 2), 2)
    assert len(red.seam) == comb(2, 1)
    assert validate(red.cubillage) is None


def test_reduce_seam_size():
    for d in range(1, 5):
        for n in range(d + 1, 8):
            red = reduce(standard(crange(n), d), n)
            assert len(red.seam) == comb(n - 1, d - 1)


def test_reduce_rejects_unknown_color():
    with pytest.raises(ValueError):
        reduce(standard((1, 2), 2), 3)


def test_reduce_expand_roundtrip_enumerated():
    for n, d in ((4, 2), (5, 3)):
        for q in enumerate_cubillages(n, d):
            red = reduce(q, n)
            assert validate(red.cubillage) is None
            assert expand(red.cubillage, red.below, n) == q


def test_reduce_refuses_z_d_d():
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="not in"):
            reduce(standard(crange(d), d), d + 1)  # the unknown color is named first
        for i in crange(d):
            with pytest.raises(ValueError, match="fewer colors than d"):
                reduce(standard(crange(d), d), i)


@pytest.mark.parametrize("colors,d", [(crange(8), 3), (crange(9), 4),
                                      ((2, 4, 5, 7, 9, 11), 2), ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z8_3", "Z9_4", "C6_2", "C6_3"])
def test_insert_undoes_reduce_for_every_color(colors, d):
    rng = random.Random(len(colors) * 10 + d)
    for _ in range(3):
        q = standard(colors, d)
        for _ in range(30):
            q = apply_flip(q, rng.choice(find_flips(q))[0])
        for i in colors:
            red = reduce(q, i)
            assert _insert(red.cubillage, i, red.below, red.seam) == q


def test_expand_examples():
    base = standard((1, 2), 2)
    assert expand(base, base.types(), 3) == standard((1, 2, 3), 2)
    assert expand(base, [], 3) == antistandard((1, 2, 3), 2)
    assert len(expand(base, [], 3)) == len(base) + comb(2, 1)


def test_expand_rejects_bad_stack_and_color():
    q = standard((1, 2, 3), 2)
    with pytest.raises(ValueError):
        expand(q, [(2, 3)], 4)  # not downward closed
    with pytest.raises(ValueError):
        expand(q, [], 2)  # not a new maximum


def test_expand_at_back_and_front():
    q = standard((1, 3), 2)
    back = expand_at_back(q, 2)
    front = expand_at_front(q, 2)
    assert validate(back) is None and validate(front) is None
    assert q.vertices() <= back.vertices()
    shifted = {tuple(sorted(set(v) | {2})) for v in q.vertices()}
    assert shifted <= front.vertices()
    assert reduce(back, 2).cubillage == q
    assert reduce(front, 2).cubillage == q


def test_expand_at_back_top_color_is_plain_expand():
    for d in (1, 2, 3):
        for n in range(d, 6):
            q = standard(crange(n), d)
            assert expand_at_back(q, n + 1) == expand(q, q.types(), n + 1)


def test_expand_at_back_rejects_existing():
    with pytest.raises(ValueError):
        expand_at_back(standard((1, 2), 2), 2)


# ----------------------------------------------------------------- embed

def test_embed_point_13():
    q = embed_subcubillage(point_cubillage(2), (1, 3), (1, 2, 3))
    assert q == antistandard((1, 2, 3), 2)
    assert (1, 3) in q.vertices()


def test_embed_identity():
    q = standard((1, 2), 2)
    assert embed_subcubillage(q, (), (1, 2)) == q


def test_embed_refuses_fewer_colors_than_the_dimension():
    # Z(4,5) has no cubillage; the empty tiling used to come back
    with pytest.raises(ValueError, match=r"need n >= d >= 1, got \(4,5\)"):
        embed_subcubillage(point_cubillage(5), (1,), crange(4))


def test_embed_every_vertex_of_z52():
    for k in range(6):
        for x in itertools.combinations(range(1, 6), k):
            q = embed_subcubillage(point_cubillage(2), x, crange(5))
            assert validate(q) is None
            assert x in q.vertices()


def test_embed_subzonotope():
    inner = standard((2, 4), 2)
    q = embed_subcubillage(inner, (1,), crange(5))
    assert validate(q) is None
    for cube in inner.cubes:
        assert q.root_of(cube.type) == tuple(sorted({1} | set(cube.root)))
    assert {tuple(sorted({1} | set(v))) for v in inner.vertices()} <= q.vertices()


def test_embed_rejects_overlap():
    with pytest.raises(ValueError):
        embed_subcubillage(standard((1, 2), 2), (2,), (1, 2, 3))


# --------------------------------------------------------------- contract

def test_contract_standard_3_2():
    c = contract(standard((1, 2, 3), 2), 3)
    assert set(c.cubes) == {Cube((2,), (1,)), Cube((), (2,))}
    assert validate(c) is None


def test_contract_counts():
    for d in range(2, 5):
        for n in range(d, 8):
            q = standard(crange(n), d)
            assert len(contract(q, n)) == comb(n - 1, d - 1)


def test_top_contraction_of_standard_is_antistandard():
    for d in range(2, 5):
        for n in range(d + 1, 8):
            assert contract(standard(crange(n), d), n) == antistandard(crange(n - 1), d - 1)


def test_contract_validates_its_result():
    # lower colors can project the partition onto an overlapping tiling
    refused = 0
    for q in enumerate_cubillages(5, 3):
        for i in q.colors:
            try:
                out = contract(q, i)
            except CubillageError:
                assert i != 5
                refused += 1
                continue
            assert validate(out) is None
    assert refused > 0


# ------------------------------------------------------- global properties

def test_spectra_determine_cubillage():
    for n, d in ((4, 2), (5, 3)):
        seen = {}
        for q in enumerate_cubillages(n, d):
            key = frozenset(q.vertices())
            assert key not in seen
            seen[key] = q


def test_spectra_pairwise_separated():
    for n, d in ((4, 2), (5, 3), (6, 4)):
        for q in enumerate_cubillages(n, d):
            verts = sorted(q.vertices())
            for a, b in itertools.combinations(verts, 2):
                assert is_r_separated(a, b, d - 1)


def test_per_height_counts_equal_for_d3():
    for n in (5, 6):
        profiles = set()
        for q in enumerate_cubillages(n, 3):
            heights = [0] * (n + 1)
            for v in q.vertices():
                heights[len(v)] += 1
            profiles.add(tuple(heights))
        assert len(profiles) == 1


def test_central_symmetry_is_involution_preserving_validity():
    for q in enumerate_cubillages(4, 2):
        s = central_symmetry(q)
        assert validate(s) is None
        assert central_symmetry(s) == q


@pytest.mark.parametrize("colors,d", [((1, 2, 3, 4, 5), 2), ((2, 4, 5, 7, 9, 11), 3)])
def test_partition_tunnel_and_symmetry_read_the_table_in_type_order(colors, d):
    # each cubillage once with its table in type order and once built from
    # its cubes in reverse, so the table's own order is not type order
    def relabel(cs):
        return tuple(colors[c - 1] for c in cs)

    for q in enumerate_cubillages(len(colors), d)[::3]:
        q = Cubillage(colors, d, [(relabel(c.root), relabel(c.type)) for c in q.cubes])
        cubes = q.cubes
        for table in (q, Cubillage(colors, d, [(c.root, c.type) for c in reversed(cubes)])):
            for i in colors:
                assert partition(table, i) == tuple(c for c in cubes if i in c.type)
            for j in itertools.combinations(colors, d - 1):
                assert tunnel(table, j) == tuple(c for c in cubes if set(j) <= set(c.type))
            s = central_symmetry(table)
            assert list(s._root_by_type) == [c.type for c in cubes]
            assert s.cubes == tuple(
                Cube(tuple(c for c in colors if c not in cube.root + cube.type), cube.type)
                for cube in cubes)


def test_constructor_refuses_a_repeated_type():
    # the public constructor is the one builder that checks for a repeated
    # type, after canonicalizing it
    with pytest.raises(ValueError, match=r"^duplicate cube type \(1, 2\)$"):
        Cubillage((1, 2, 3), 2, [((), (1, 2)), ((3,), (1, 2)), ((), (2, 3))])
    with pytest.raises(ValueError, match=r"^duplicate cube type \(1, 2\)$"):
        Cubillage((1, 2, 3), 2, [((), (1, 2)), ((3,), (2, 1))])


def test_public_entry_points_canonicalize():
    q = Cubillage([2, 1], 2, [([], [2, 1])])
    assert q == Cubillage((1, 2), 2, [((), (1, 2))]) and q.root_of([2, 1]) == ()
    r = standard((1, 3, 4), 2)
    assert membrane_of_stack(r, [[3, 1]]) == membrane_of_stack(r, [(1, 3)])
    grown = expand(r, [[3, 1]], 5)
    assert grown == expand(r, [(1, 3)], 5) and validate(grown) is None


def test_constructor_and_contract_rejections():
    for colors, d, cubes in (((1, 2, 3), 2, [((), (1, 2)), ((3,), (2, 1))]),
                             ((0, 1), 1, []),
                             ((1, 2), 2, [((0,), (1, 2))])):
        with pytest.raises(ValueError):
            Cubillage(colors, d, cubes)
    with pytest.raises(ValueError):
        contract(standard(crange(3), 1), 3)  # would be 0-dimensional


def test_dimension_must_be_a_positive_int():
    cs = crange(3)
    cubes = [(c.root, c.type) for c in standard(cs, 2).cubes]
    for d in (2.9, "2", True, 0):
        with pytest.raises(ValueError):
            Cubillage(cs, d, cubes)
    with pytest.raises(ValueError):
        standard(range(1, 4), True)
    with pytest.raises(ValueError):
        AdmissibleOrder(cs, 1.5, [])
    with pytest.raises(ValueError):
        Realization(cs, 1.0)


def test_json_roundtrip():
    q = standard(crange(4), 2)
    text = q.to_json()
    assert Cubillage.from_json(text) == q
    payload = json.loads(text)
    assert payload["cubes"] == sorted(payload["cubes"], key=lambda c: c["type"])


def test_peripheral_counts_satisfy_pascal_recursion():
    def vcount(n, d):
        front = boundary_plates(crange(n), d, "front")
        back = boundary_plates(crange(n), d, "back")
        return len(plate_vertices(front) | plate_vertices(back))

    for d in range(2, 5):
        for n in range(d + 1, 9):
            assert vcount(n, d) == vcount(n - 1, d) + vcount(n - 1, d - 1)


def test_d1_cubillages_are_chain_orders():
    from zonocube.bruhat import enumerate_cubillages as enum

    qs = enum(4, 1)
    assert len(qs) == 24
    assert all(is_valid(q) for q in qs)
    from zonocube.order import avalanche, standardize

    anti = antistandard(crange(3), 1)
    assert standardize(anti)[-1] == standard(crange(3), 1)
    assert avalanche(standard(crange(3), 1)) == standard(crange(3), 1)
