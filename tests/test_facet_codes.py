"""validate and the vertex spectra on position codes, against their
facet-tuple forms in facet_oracles, on seeded raising walks and their
mutants, and the pins of the position coding.  The CLI on noncontiguous
colors is pinned in test_cli.test_module_entry_point."""

import random

import pytest
from facet_oracles import _facet_pairing, validate_oracle, vertices_oracle

from zonocube.colors import _decode, _encode, subsets
from zonocube.cubillage import Cubillage, CubillageError, cover_relations, standard, validate
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


def test_position_code_is_the_color_code_on_one_to_n():
    for n in range(1, 8):
        colors = tuple(range(1, n + 1))
        index = {c: k for k, c in enumerate(colors)}
        for k in range(n + 1):
            for x in subsets(colors, k):
                assert _encode(x, index) == sum(1 << (c - 1) for c in x)
                assert _decode(_encode(x, index), colors) == x


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

