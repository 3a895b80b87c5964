"""validate and the vertex spectra on position codes, against their
facet-tuple forms in facet_oracles, on seeded raising walks and their
mutants, and the pins of the position coding.  The CLI on noncontiguous
colors is pinned in test_cli.test_module_entry_point."""

import random
from math import comb
from pathlib import Path

import pytest
from facet_oracles import _facet_pairing, validate_oracle, vertices_oracle

from zonocube.colors import _byte_tables, _decode, _encode, subsets
from zonocube.cubillage import (Cubillage, CubillageError, _facet, _plate_codes, _topological,
                                boundary_plates, cover_relations, standard, validate)
from zonocube.order import apply_flip, find_flips


def raising_walk(n, d, steps, rng):
    q = standard(range(1, n + 1), d)
    for _ in range(steps):
        raising = [p for p, way in find_flips(q) if way == "raising"]
        if not raising:
            break
        q = apply_flip(q, rng.choice(raising))
    return q


def toggle(roots, colors, rng):
    """Add or remove one color of one root, the color drawn from all of them."""
    typ, c = rng.choice(sorted(roots)), rng.choice(colors)
    root = roots[typ]
    roots[typ] = tuple(x for x in root if x != c) if c in root else tuple(sorted(root + (c,)))


def mutants(q, rng, rounds):
    """Per round: one root toggle, one root swap between two types, one
    dropped cube and two toggles."""
    for _ in range(rounds):
        for kind in ("toggle", "swap", "drop", "two toggles"):
            roots = dict(q._root_by_type)
            if kind == "swap":
                a, b = rng.sample(sorted(roots), 2)
                roots[a], roots[b] = roots[b], roots[a]
            elif kind == "drop":
                del roots[rng.choice(sorted(roots))]
            else:
                for _ in range(1 + (kind == "two toggles")):
                    toggle(roots, q.colors, rng)
            yield kind, Cubillage(q.colors, q.d, [(r, t) for t, r in roots.items()])


def outcome(f, q):
    """f(q), or the message of the CubillageError it raises."""
    try:
        return f(q)
    except CubillageError as exc:
        return str(exc)


@pytest.mark.parametrize("n,d", [(8, 3), (8, 4), (9, 4), (10, 5)])
def test_validate_and_vertices_match_the_facet_oracles(n, d):
    rng = random.Random(100 * n + d)
    kinds = set()
    for _ in range(3):
        q = raising_walk(n, d, rng.randrange(40), rng)
        inputs = [("walk", q), *mutants(q, rng, 4)]
        for kind, m in inputs:
            diagnostic = validate(m)
            assert diagnostic == validate_oracle(m), kind
            assert m.vertices() == vertices_oracle(m), kind
            if not (diagnostic or "").startswith("cube "):
                # the roots avoid their types, so the pairings agree
                assert outcome(cover_relations, m) == outcome(lambda q: _facet_pairing(q)[2], m)
            kinds.add((kind, diagnostic is None))
    assert ("walk", True) in kinds
    assert {kind for kind, valid in kinds if not valid} == {"toggle", "swap", "drop", "two toggles"}


@pytest.mark.parametrize("colors,d", [(tuple(range(1, 9)), 3), (tuple(range(1, 10)), 4),
                                      ((2, 4, 5, 7, 9, 11), 3)], ids=["Z8_3", "Z9_4", "C6_3"])
def test_vertices_after_validate_are_the_vertices_of_a_fresh_copy(colors, d):
    # a passing validate leaves its codes for q.vertices(), a failing one none
    rng = random.Random(len(colors) * 10 + d)
    for _ in range(3):
        q = standard(colors, d)
        for _ in range(rng.randrange(40)):
            q = apply_flip(q, rng.choice(find_flips(q))[0])
        roots = dict(q._root_by_type)
        t = rng.choice(sorted(roots))
        roots[t] += (colors[-1] + 1,)
        foreign = Cubillage(colors, d, [(r, t) for t, r in roots.items()])
        for kind, m in [("walk", q), *mutants(q, rng, 4), ("foreign root", foreign)]:
            diagnostic = validate(m)
            assert ("spectrum_codes" in m._cache) == (diagnostic is None), kind
            assert m.vertices() == Cubillage.from_json(m.to_json()).vertices(), kind


def test_position_code_is_the_color_code_on_one_to_n():
    for n in range(1, 8):
        colors = tuple(range(1, n + 1))
        index = {c: k for k, c in enumerate(colors)}
        for k in range(n + 1):
            for x in subsets(colors, k):
                assert _encode(x, index) == sum(1 << (c - 1) for c in x)
                assert _decode(_encode(x, index), colors) == x


def sparse_colors(n, rng):
    """n increasing colors with random gaps, the last ones at or past 10**12."""
    colors, c = [], 0
    for k in range(n):
        c += rng.randrange(1, 10**12 if k >= n - 2 else 5)
        colors.append(c)
    return tuple(colors)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 70])
def test_decode_reads_back_every_code_by_bytes(n):
    rng = random.Random(n)
    for colors in (tuple(range(1, n + 1)), sparse_colors(n, rng)):
        index = {c: k for k, c in enumerate(colors)}
        picks = [(), colors, colors[:1], colors[-1:], colors[7:9], colors[8:]]
        picks += [tuple(c for c in colors if rng.random() < 0.5) for _ in range(200)]
        for x in picks:
            assert _decode(_encode(x, index), colors) == x
        # a bit at or past the last color, in the last byte or beyond it
        for bit in (n, n + 1, n + 8, n + 9, -(-n // 8) * 8, 64 * (n + 1)):
            with pytest.raises(IndexError):
                _decode(1 << bit | _encode(colors[:2], index), colors)


def test_decode_tables_are_a_bounded_cache():
    assert _byte_tables.cache_info().maxsize is not None
    assert [len(table) for table in _byte_tables(tuple(range(1, 20)))] == [256, 256, 8]
    assert _byte_tables(()) == ([()],)


@pytest.mark.parametrize("n", range(1, 8))
def test_plate_codes_are_the_boundary_plates_on_any_colors(n):
    rng = random.Random(n)
    for colors in (tuple(range(1, n + 1)), sparse_colors(n, rng)):
        for d in range(1, n + 1):
            for side, codes in zip(("front", "back"), _plate_codes(n, d)):
                plates = {_facet(code, colors) for code in codes}
                assert len(plates) == len(codes)
                assert plates == boundary_plates(colors, d, side), (colors, d, side)


VALIDATE_GOLDEN = Path(__file__).resolve().parent / "golden" / "validate_mutants.txt"


def relabeled(q, colors):
    """q with its i-th color renamed colors[i]."""
    name = dict(zip(q.colors, colors))
    return Cubillage(colors, q.d, [(tuple(name[c] for c in r), tuple(name[c] for c in t))
                                   for t, r in q._root_by_type.items()])


def validate_transcript():
    """validate's diagnostic and cover_relations (or the message it raises)
    on the mutants of seeded raising walks at Z(5,2), Z(6,3) and Z(8,4), on
    the colors 1..n and on sparse colors, and on two hand-built cubillages
    two of whose cubes claim one facet on the same side."""
    inputs = []
    for n, d in ((5, 2), (6, 3), (8, 4)):
        rng = random.Random(10 * n + d)
        q = raising_walk(n, d, comb(n, d + 1) // 2, rng)
        for colors in (q.colors, sparse_colors(n, rng)):
            inputs += [(f"Z({n},{d}) on {colors}, {kind}", m)
                       for kind, m in mutants(relabeled(q, colors), rng, 2)]
    for colors in ((1, 2, 3), (2, 5, 9)):
        inputs.append((f"Z(3,2) on {colors}, every root empty",
                       Cubillage(colors, 2, [((), t) for t in subsets(colors, 2)])))
    return "".join(f"# {label}\n{validate(m)!r}\n{outcome(cover_relations, m)!r}\n"
                   for label, m in inputs)


def test_validate_and_cover_relations_match_golden_output():
    # tests/golden/validate_mutants.txt was written by validate_transcript()
    assert validate_transcript() == VALIDATE_GOLDEN.read_text(encoding="utf-8")


def test_topological_reports_a_cycle():
    # the numbers 0, 1, 2, 3 stand for the nodes a, b, c, d
    assert _topological(4, [(0, 1), (1, 2), (2, 0)]) is None
    assert _topological(4, [(0, 1), (1, 2), (2, 0), (3, 0)]) is None
    topo, succs = _topological(4, [(2, 0), (0, 1), (3, 1)])
    assert topo == [2, 3, 0, 1] and succs[0] == [1] and succs[1] == []


def test_a_huge_color_takes_one_bit():
    q = Cubillage((1, 10**12), 1, [((), (1,)), ((1,), (10**12,))])
    assert validate(q) is None
    assert q.vertices() == {(), (1,), (1, 10**12)}


@pytest.mark.parametrize("cubes,spectra", [
    pytest.param([((), (1, 2)), ((4,), (1, 3)), ((), (2, 3))],
                 [(), (1,), (1, 2), (1, 3, 4), (1, 4), (2,), (2, 3), (3,), (3, 4), (4,)],
                 id="stray-root-color"),
    pytest.param([((), (1, 2)), ((2,), (1, 3)), ((), (1, 4))],
                 [(), (1,), (1, 2), (1, 2, 3), (1, 4), (2,), (2, 3), (4,)],
                 id="stray-type-color"),
    pytest.param([((5,), (2, 5)), ((2,), (2, 3))], [(2,), (2, 3), (2, 5), (5,)],
                 id="root-meets-type"),
])
def test_stray_colors_keep_their_spectra(cubes, spectra):
    q = Cubillage((1, 2, 3), 2, cubes)
    assert sorted(q.vertices()) == spectra
    assert q.vertices() == vertices_oracle(q)
    assert validate(q) == validate_oracle(q) is not None

