import functools
import itertools
import os
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from triangulation_oracles import polygon_triangulations, segment_subdivisions

import zonocube.bruhat
from zonocube.bruhat import (
    MAX_STATES,
    ScaleGuardError,
    _triangulations,
    bruhat_poset,
    enumerate_cubillages,
    sec,
    sec_surjectivity_experiment,
    separated_system_count,
    triangulation_shape_ok,
)
from zonocube.colors import Colors, colorset, subsets, union
from zonocube.cubillage import (
    Cubillage,
    CubillageError,
    antistandard,
    central_symmetry,
    contract,
    expand,
    expand_at_back,
    expand_at_front,
    is_valid,
    reduce,
    standard,
    validate,
)
from zonocube.masks import _bits, _blocking, _cubes, _cubillage_of_mask, _mask_of, _steps, _walk
from zonocube.order import apply_flip, find_flips
from zonocube.systems import (
    extension_search,
    from_consistent,
    from_order,
    from_spectra,
    inversions,
    order_of,
)


def crange(n):
    return tuple(range(1, n + 1))


# ------------------------------------------------------------- enumeration

def test_capsids_have_two_cubillages():
    for d in range(1, 5):
        assert len(enumerate_cubillages(d + 1, d)) == 2


def test_ring_counts():
    assert len(enumerate_cubillages(4, 2)) == 8
    assert len(enumerate_cubillages(5, 3)) == 10
    assert len(enumerate_cubillages(6, 4)) == 12


def test_enumeration_is_valid_and_unique():
    qs = enumerate_cubillages(5, 2)
    assert len(qs) == len({q.key() for q in qs})
    assert all(is_valid(q) for q in qs)


def test_flip_count_matches_separated_system_count():
    for n, d, count in ((4, 2, 8), (5, 2, 62), (5, 3, 10), (6, 2, 908), (6, 3, 148),
                        (7, 3, 7686), (7, 4, 338), (8, 5, 752)):
        assert len(enumerate_cubillages(n, d)) == separated_system_count(n, d) == count


def test_separated_system_count_refusals():
    for n, d in ((3, 0), (0, 0), (4, 5)):
        with pytest.raises(ValueError):
            separated_system_count(n, d)
    with pytest.raises(ScaleGuardError):
        separated_system_count(11, 5)


@pytest.mark.parametrize("n", [4.5, True])
@pytest.mark.parametrize("search", [
    separated_system_count, enumerate_cubillages, bruhat_poset,
    pytest.param(lambda n, d: extension_search([], n, d), id="extension_search"),
    pytest.param(lambda n, d: from_consistent([], n, d), id="from_consistent")])
def test_n_rule_refuses_an_n_that_is_no_int(search, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        search(n, 1)


def test_scale_guard():
    with pytest.raises(ScaleGuardError):
        enumerate_cubillages(10, 5)
    with pytest.raises(ScaleGuardError):
        enumerate_cubillages(5, 2, max_states=10)
    assert len(enumerate_cubillages(5, 2, max_states=62)) == 62
    for cap in (0, -1):
        with pytest.raises(ValueError):
            enumerate_cubillages(2, 2, max_states=cap)


# ------------------------------------------------- oracle: capsid matching

@functools.lru_cache(maxsize=None)
def _capsid_patterns(d: int):
    base = tuple(range(1, d + 2))
    std = frozenset((c.root, c.type) for c in standard(base, d).cubes)
    anti = frozenset((c.root, c.type) for c in antistandard(base, d).cubes)
    return std, anti


def _flip_fragment(q: Cubillage, parent: Colors):
    """Common outside-root and the position-relabeled fragment at a parent,
    or None when the d+1 cubes do not sit together as a capsid."""
    roots = []
    for typ in subsets(parent, q.d):
        root = q._root_by_type.get(typ)
        if root is None:
            return None
        roots.append((typ, root))
    kset = set(parent)
    outside = {tuple(c for c in root if c not in kset) for _, root in roots}
    if len(outside) != 1:
        return None
    x0 = next(iter(outside))
    pos = {c: i + 1 for i, c in enumerate(parent)}
    frag = frozenset(
        (tuple(pos[c] for c in root if c in kset), tuple(pos[c] for c in typ))
        for typ, root in roots
    )
    return x0, frag


def find_flips_oracle(q: Cubillage) -> tuple[tuple[Colors, str], ...]:
    """All flippable parents with their direction.

    A parent K of size d+1 is flippable when the d+1 cubes typed inside K
    share a common root outside K; the fragment is then one of the two
    capsid cubillages, standard for a raising flip, antistandard for a
    lowering one.
    """
    std, anti = _capsid_patterns(q.d)
    out = []
    for parent in subsets(q.colors, q.d + 1):
        got = _flip_fragment(q, parent)
        if got is None:
            continue
        _, frag = got
        if frag == std:
            out.append((parent, "raising"))
        elif frag == anti:
            out.append((parent, "lowering"))
        else:
            raise CubillageError(f"fragment at parent {parent} is not a capsid cubillage")
    return tuple(out)


def apply_flip_oracle(q: Cubillage, parent) -> Cubillage:
    """Replace the capsid fragment at the parent by the opposite one."""
    parent = colorset(parent)
    got = _flip_fragment(q, parent)
    if got is None:
        raise ValueError(f"parent {parent} is not flippable")
    x0, frag = got
    std, anti = _capsid_patterns(q.d)
    if frag == std:
        replacement = anti
    elif frag == anti:
        replacement = std
    else:
        raise ValueError(f"parent {parent} is not flippable")
    unpos = dict(enumerate(parent, start=1))
    kset = set(parent)
    roots = {typ: root for typ, root in q._root_by_type.items() if not kset.issuperset(typ)}
    for r_pos, t_pos in replacement:
        roots[tuple(unpos[p] for p in t_pos)] = union(x0, (unpos[p] for p in r_pos))
    return Cubillage._adopt(q.colors, q.d, roots)


@pytest.mark.parametrize("colors,d", [(crange(6), 2), (crange(8), 3), (crange(9), 4),
                                      (crange(10), 5), ((2, 4, 5, 7, 9, 11), 2),
                                      ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z6_2", "Z8_3", "Z9_4", "Z10_5", "C6_2", "C6_3"])
def test_flips_match_capsid_oracle_on_seeded_walks(colors, d):
    rng = random.Random(len(colors) * 10 + d)
    q = standard(colors, d)
    for _ in range(60):
        flips = find_flips(q)
        assert flips == find_flips_oracle(q)
        for parent, _ in flips:
            assert apply_flip(q, parent) == apply_flip_oracle(q, parent)
        q = apply_flip_oracle(q, rng.choice(flips)[0])


@pytest.mark.parametrize("colors,d", [(crange(8), 3), (crange(9), 4), ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z8_3", "Z9_4", "C6_3"])
def test_flips_carry_their_blocking_counts_on_seeded_walks(colors, d):
    # the walk steps with apply_flip itself, raising and lowering mixed, so
    # every cubillage after the first lists its flips from carried counts
    rng, n = random.Random(len(colors) * 10 + d + 1), len(colors)
    q, ways = standard(colors, d), set()
    outside = colors[:d] + (colors[-1] + 1,)
    for step in range(60):
        assert step == 0 or "blocking" in q._cache
        flips = find_flips(q)
        assert flips == find_flips_oracle(q)
        assert q._cache["blocking"] == _blocking(n, d, q._cache["mask"])
        listed = {parent for parent, _ in flips}
        for parent in [*subsets(colors, d + 1), outside]:
            if parent not in listed:
                with pytest.raises(ValueError, match="is not flippable"):
                    apply_flip(q, parent)
        parent, way = rng.choice(flips)
        ways.add(way)
        q = apply_flip(q, parent)
    assert ways == {"raising", "lowering"}


# ------------------------------------------- oracle: the flip-graph search

def flip_graph_oracle(n, d):
    """Reference search over whole cubillages: grow from the standard one by
    raising find_flips/apply_flip.  Returns the canonically sorted elements
    and the poset (elements, ranks, covers) built from the raising flips."""
    start = standard(crange(n), d)
    seen = {start.key(): start}
    edges = []
    frontier = [start]
    while frontier:
        nxt = []
        for q in frontier:
            for parent, direction in find_flips_oracle(q):
                if direction != "raising":
                    continue
                q2 = apply_flip_oracle(q, parent)
                edges.append((q.key(), q2.key()))
                if q2.key() not in seen:
                    seen[q2.key()] = q2
                    nxt.append(q2)
        frontier = nxt
    elements = tuple(sorted(seen.values(), key=Cubillage.key))
    ranked = tuple(sorted(elements, key=lambda q: (len(inversions(q)), q.key())))
    ranks = tuple(len(inversions(q)) for q in ranked)
    index = {q.key(): i for i, q in enumerate(ranked)}
    covers = tuple(sorted((index[a], index[b]) for a, b in edges))
    return elements, (ranked, ranks, covers)


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 4)])
def test_engine_matches_flip_graph_oracle(n, d):
    elements, (ranked, ranks, covers) = flip_graph_oracle(n, d)
    assert enumerate_cubillages(n, d) == elements
    poset = bruhat_poset(n, d)
    assert poset.elements == ranked
    assert poset.ranks == ranks
    assert poset.covers == covers


def is_canonical(cs):
    return (type(cs) is tuple and all(type(c) is int and c > 0 for c in cs)
            and all(a < b for a, b in zip(cs, cs[1:])))


def assert_canonical(r):
    """r holds only canonical color sets, survives a JSON round trip with
    an equal hash, and is a valid cubillage."""
    assert is_canonical(r.colors)
    assert all(is_canonical(root) and is_canonical(typ) for root, typ in r.cubes)
    again = Cubillage.from_json(r.to_json())
    assert again == r and hash(again) == hash(r)
    assert validate(r) is None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([(8, 3), (8, 4), (9, 4)]), st.data())
def test_engine_agrees_with_flips_on_random_walks(nd, data):
    n, d = nd
    q = standard(crange(n), d)
    for _ in range(data.draw(st.integers(0, comb(n, d + 1)), label="steps")):
        raising = sorted(p for p, direction in find_flips_oracle(q) if direction == "raising")
        if not raising:
            break
        q = apply_flip_oracle(q, data.draw(st.sampled_from(raising), label="parent"))
    inv = _mask_of(q)
    assert _cubillage_of_mask(crange(n), d, inv) == q
    ok = _steps(n, d, inv)
    flips = find_flips_oracle(q)
    for direction in ("raising", "lowering"):
        allowed = {p for p, k in _bits(n, d).items()
                   if ok >> k & 1 and bool(inv >> k & 1) == (direction == "lowering")}
        assert allowed == {p for p, dirn in flips if dirn == direction}
    # the internal builders hand back canonical, valid cubillages
    assert_canonical(q)
    parent = data.draw(st.sampled_from([p for p, _ in flips]), label="flip")
    color = data.draw(st.sampled_from(crange(n)), label="color")
    built = [apply_flip(q, parent), reduce(q, color).cubillage, expand(q, q.types(), n + 1),
             contract(q, n), central_symmetry(q), expand_at_back(q, n + 1),
             expand_at_front(q, n + 1)]
    for r in built:
        assert_canonical(r)
    rebuilt = [from_spectra(q.vertices(), q.colors, d), from_order(order_of(q)),
               from_consistent(inversions(q), n, d + 1).projected]
    for r in rebuilt:
        assert_canonical(r)
        assert r == q


def raising_walk(n, d, data, label):
    q = standard(crange(n), d)
    for _ in range(data.draw(st.integers(0, comb(n, d + 1)), label=f"{label} steps")):
        raising = [p for p, direction in find_flips(q) if direction == "raising"]
        if not raising:
            break
        q = apply_flip(q, data.draw(st.sampled_from(raising), label=f"{label} parent"))
    return q


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([(8, 3), (9, 4)]), st.data())
def test_root_tuple_orders_as_the_canonical_key(nd, data):
    # enumerate_cubillages and BruhatPoset sort by the root tuple in place of key()
    n, d = nd
    first, second = raising_walk(n, d, data, "first"), raising_walk(n, d, data, "second")
    flips = [p for p, _ in find_flips(first)]
    qs = (first, second, apply_flip(first, data.draw(st.sampled_from(flips), label="flip")))
    roots = [tuple(r for r, _ in _cubes(crange(n), d, _mask_of(q))) for q in qs]
    for q, r in zip(qs, roots):
        assert q.key() == (crange(n), d, tuple(zip(subsets(crange(n), d), r)))
    for (a, ra), (b, rb) in itertools.combinations(zip(qs, roots), 2):
        assert (ra < rb, ra == rb) == (a.key() < b.key(), a.key() == b.key())


# ------------------------------------------------------------------- poset

def test_poset_structure_small():
    for n, d in ((4, 2), (5, 3), (6, 4), (5, 2)):
        poset = bruhat_poset(n, d)
        assert poset.is_graded()
        assert poset.minimal_elements() == (0,)
        assert poset.maximal_elements() == (len(poset) - 1,)
        assert poset.elements[0] == standard(crange(n), d)
        assert poset.elements[-1] == antistandard(crange(n), d)
        assert poset.ranks[-1] == comb(n, d + 1)


def test_poset_builds_no_cubillage_or_closure_until_read(monkeypatch):
    built, closures = [], []
    fill, closure = Cubillage._fill, zonocube.bruhat._closure
    monkeypatch.setattr(Cubillage, "_fill", lambda q, *args: built.append(q) or fill(q, *args))
    monkeypatch.setattr(zonocube.bruhat, "_closure",
                        lambda *args: closures.append(args) or closure(*args))
    poset = bruhat_poset(6, 2)
    assert (len(poset), poset.ranks[0], poset.ranks[-1]) == (908, 0, comb(6, 3))
    assert len(poset.covers) > len(poset)
    assert poset.minimal_elements() == (0,)
    assert poset.maximal_elements() == (907,)
    assert poset.is_graded()
    assert poset.to_dot().count("->") == len(poset.covers)
    assert (built, closures) == ([], [])
    assert poset.leq(0, 907) and not poset.leq(907, 0)
    assert (len(built), len(closures)) == (0, 1)
    elements = poset.elements
    assert len(built) == 908 and poset.elements is elements
    assert [_mask_of(q) for q in elements] == list(poset.masks)
    poset.leq(1, 2)
    assert len(closures) == 1
    assert elements[0] == standard(crange(6), 2) and elements[-1] == antistandard(crange(6), 2)


def test_ring_posets_are_cycles():
    for d in (2, 3, 4):
        poset = bruhat_poset(d + 2, d)
        assert len(poset) == 2 * (d + 2)
        degree = {}
        for i, j in poset.covers:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        assert sorted(degree.values()) == [2] * len(poset)


def test_inversion_monotone_along_order():
    poset = bruhat_poset(4, 2)
    invs = [inversions(q) for q in poset.elements]
    for i in range(len(poset)):
        for j in range(len(poset)):
            if poset.leq(i, j):
                assert invs[i] <= invs[j]


def test_b52_is_a_lattice_b62_is_not():
    assert bruhat_poset(5, 2).join_failures(1) == []
    failures = bruhat_poset(6, 2).join_failures(1)
    assert len(failures) == 1


def test_poset_dot_export():
    dot = bruhat_poset(4, 2).to_dot()
    assert dot.startswith("digraph bruhat {")
    assert dot.count("->") == len(bruhat_poset(4, 2).covers)


# --------------------------------------------------------------------- sec

def test_sec_standard_5_3():
    tri = sec(standard(crange(5), 3))
    assert tri.simplices in set(polygon_triangulations(5)) or \
        tuple(tri.simplices) in polygon_triangulations(5)
    assert triangulation_shape_ok(tri)


def test_sec_standard_d2_unit_steps():
    for n in (3, 4, 5):
        tri = sec(standard(crange(n), 2))
        assert tri.simplices == tuple((i, i + 1) for i in range(1, n))
        assert triangulation_shape_ok(tri)


def test_sec_volume_certified_on_enumerations():
    for n, d in ((5, 3), (6, 3)):
        for q in enumerate_cubillages(n, d):
            tri = sec(q)
            assert triangulation_shape_ok(tri)


def test_sec_flip_compatibility():
    # a flip in a capsid rooted at the origin changes the slice; a high capsid
    # leaves it unchanged
    for q in enumerate_cubillages(5, 3):
        before = sec(q).simplices
        for parent, _ in find_flips(q):
            fragment_roots = {q.root_of(t) for t in itertools.combinations(parent, 3)}
            x0 = {tuple(sorted(set(r) - set(parent))) for r in fragment_roots}
            after = sec(apply_flip(q, parent)).simplices
            if x0 == {()}:
                assert after != before
            else:
                assert after == before


def test_polygon_triangulation_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(3, 8):
        assert len(polygon_triangulations(n)) == catalan[n - 2]


def test_segment_subdivision_count():
    assert len(segment_subdivisions(5)) == 8  # subsets of the 3 inner points


def test_surjectivity_experiments():
    r53 = sec_surjectivity_experiment(5, 3)
    assert r53["surjective"] and r53["total"] == 5
    r63 = sec_surjectivity_experiment(6, 3)
    assert r63["surjective"] and r63["total"] == 14
    r52 = sec_surjectivity_experiment(5, 2)
    assert r52["surjective"] and r52["total"] == 8
    r54 = sec_surjectivity_experiment(5, 4)
    assert r54["mode"] == "exact"
    assert r54["surjective"] and r54["total"] == r54["image_size"] == 2


@pytest.mark.parametrize("n,d,total", [
    (6, 1, 6), (6, 4, 6), (7, 4, 25), (7, 5, 7), (8, 5, 40), (8, 6, 8), (9, 7, 9)])
def test_surjectivity_is_exact_at_d1_and_past_d3(n, d, total):
    report = sec_surjectivity_experiment(n, d)
    assert list(report) == ["n", "d", "image_size", "mode", "total", "missed", "surjective"]
    assert report["mode"] == "exact" and report["surjective"] and report["missed"] == []
    assert report["total"] == report["image_size"] == total


def test_surjectivity_builds_no_cubillage_and_certifies_each_triangulation_once(monkeypatch):
    built, certified = [], []
    fill, check = Cubillage._fill, zonocube.bruhat.volume_check
    monkeypatch.setattr(Cubillage, "_fill", lambda q, *args: built.append(q) or fill(q, *args))
    monkeypatch.setattr(zonocube.bruhat, "volume_check",
                        lambda t, *args: certified.append(t.simplices) or check(t, *args))
    assert sec_surjectivity_experiment(6, 3)["total"] == 14
    assert built == [] and len(certified) == len(set(certified)) == 14


def test_surjectivity_refuses_a_triangulation_that_fails_its_certificate(monkeypatch):
    search = zonocube.bruhat._triangulations
    monkeypatch.setattr(zonocube.bruhat, "_triangulations",
                        lambda *args: search(*args) | {((1, 2, 3),)})
    with pytest.raises(CubillageError, match="fails the volume identity"):
        sec_surjectivity_experiment(5, 3)


def test_flip_search_matches_the_segment_and_polygon_oracles():
    for n in range(2, 11):
        assert _triangulations(n, 2, MAX_STATES) == segment_subdivisions(n)
    for n in range(3, 11):
        assert _triangulations(n, 3, MAX_STATES) == polygon_triangulations(n)


def test_flip_search_holds_the_standard_and_antistandard_slices():
    for n in range(6, 10):
        for d in range(2, min(n, 6) + 1):
            universe = _triangulations(n, d, MAX_STATES)
            for q in (standard(crange(n), d), antistandard(crange(n), d)):
                assert sec(q).simplices in universe


def test_flip_search_refuses_past_its_state_cap():
    assert len(_triangulations(7, 3, 42)) == 42
    with pytest.raises(ScaleGuardError, match="state count passed the cap 41"):
        _triangulations(7, 3, 41)


def slice_moves(n, d):
    """(changed, unchanged): the raising covers inv -> inv | bit(K) of B(n,d)
    that move the slice and those that keep it.  Each move is the circuit
    flip on K, asserted here: the side of K holding K - max K leaves and
    the other side comes in."""
    steps = zonocube.bruhat._masks(n, d, MAX_STATES)
    roots = _walk(n, d, steps)
    slices = {inv: frozenset(t for t, r in zip(_bits(n, d - 1), rs) if not r)
              for inv, rs in roots.items()}
    parents, changed, unchanged = list(_bits(n, d)), 0, 0
    for inv, up in steps.items():
        while up:
            b = up & -up
            up ^= b
            parent = parents[b.bit_length() - 1]
            before, after = slices[inv], slices[inv | b]
            if before == after:
                unchanged += 1
                continue
            faces = [tuple(c for c in parent if c != z) for z in parent]
            leaving = frozenset(faces[::-1][::2])
            assert leaving <= before and after == (before - leaving) | (frozenset(faces) - leaving)
            changed += 1
    return changed, unchanged


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 1)]
                         + [(7, 3), (7, 4), (7, 5), (8, 5)])
def test_raising_covers_keep_the_slice_or_flip_it_on_their_circuit(n, d):
    changed, _ = slice_moves(n, d)
    assert changed >= (n > d)


@pytest.mark.skipif(os.environ.get("ZONOCUBE_SLOW") != "1",
                    reason="about 1-4 s each; set ZONOCUBE_SLOW=1 to run")
@pytest.mark.parametrize("n,d,moves", [(7, 2, (11425, 68935)), (8, 4, (55456, 233952))])
def test_slow_pin_raising_covers_flip_the_slice_on_their_circuit(n, d, moves):
    assert slice_moves(n, d) == moves
