"""The validity certificate of the inversion masks against validate(), the
root tables that the flip search carries and that flips patch, and the
mask read off vertex spectra."""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from mask_oracles import mask_of_spectra_oracle, masks_oracle

from zonocube.bruhat import MAX_STATES, BruhatPoset, _masks, enumerate_cubillages
from zonocube.cli import main
from zonocube.colors import _encode, subsets
from zonocube.cubillage import (
    Cubillage, CubillageError, ScaleGuardError, antistandard, standard, validate)
from zonocube.masks import (
    _cubes, _cubillage_of_mask, _mask, _mask_of, _mask_of_spectra, _walk)
from zonocube.order import apply_flip, find_flips


def certified(q):
    try:
        _mask_of(q)
    except CubillageError:
        return False
    return True


def fresh(q, roots=None):
    """A public construction of q with no cached mask, roots replaced per type."""
    roots = roots or {}
    return Cubillage(q.colors, q.d, [(roots.get(c.type, c.root), c.type) for c in q.cubes])


def flips_cli(q):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(q.to_json())
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["flips", "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_every_cubillage_up_to_six_colors_is_certified():
    for n in range(1, 7):
        for d in range(1, n + 1):
            for q in enumerate_cubillages(n, d):
                again = fresh(q)
                assert validate(again) is None
                assert _mask_of(again) == _mask_of(q)


def walk(q, steps, rng):
    for _ in range(steps):
        q = apply_flip(q, rng.choice(find_flips(q))[0])
    return q


def random_walk(colors, d, steps, rng):
    return walk(standard(colors, d), steps, rng)


@pytest.mark.parametrize("colors,d", [(range(1, 6), 2), (range(1, 7), 3), (range(1, 8), 3),
                                      (range(1, 9), 4), ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z5_2", "Z6_3", "Z7_3", "Z8_4", "C6_3"])
def test_certificate_rejects_exactly_what_validate_rejects(colors, d):
    rng = random.Random(len(colors) * 10 + d)
    colors = tuple(colors)
    rejected = 0
    for _ in range(100):
        q = random_walk(colors, d, rng.randrange(12), rng)
        t = rng.choice(q.types())
        root = set(q.root_of(t))
        if rng.random() < 0.5:
            root ^= {rng.choice(colors)}
        else:
            root = {c for c in colors if c not in t and rng.random() < 0.5}
        if tuple(sorted(root)) == q.root_of(t):
            continue
        bad = fresh(q, {t: tuple(sorted(root))})
        diagnostic = validate(fresh(bad))
        assert certified(bad) == (diagnostic is None), (t, root, diagnostic)
        if diagnostic is not None:
            rejected += 1
            code, out, err = flips_cli(bad)
            assert code == 1 and not out and err.startswith("error: ")
    assert rejected >= 80


@pytest.mark.parametrize("colors,d", [(range(1, 7), 2), (range(1, 8), 3),
                                      ((2, 4, 5, 7, 9, 11), 3)], ids=["Z6_2", "Z7_3", "C6_3"])
def test_a_failed_certificate_caches_nothing(colors, d):
    # a color below max T toggled in the root of T leaves the mask read from
    # the roots consistent, so the certificate fails at the root rule, after
    # the packet scan
    rng = random.Random(len(colors) * 10 + d)
    colors, failed = tuple(colors), 0
    for _ in range(10):
        q = random_walk(colors, d, rng.randrange(12), rng)
        t = rng.choice(q.types())
        below = [c for c in colors if c < t[-1] and c not in t]
        if not below:
            continue
        root = tuple(sorted(set(q.root_of(t)) ^ {rng.choice(below)}))
        bad = fresh(q, {t: root})
        for f in (_mask_of, find_flips, lambda q: apply_flip(q, q.types()[0] + (colors[-1],))):
            with pytest.raises(CubillageError, match="root rule"):
                f(bad)
            assert bad._cache == {}
        failed += 1
    assert failed >= 5


@pytest.mark.parametrize("colors,d,cubes", [
    pytest.param((1, 2, 3), 2, [((), (1, 2)), ((2,), (1, 3))], id="missing-type"),
    pytest.param((1, 2, 3), 2, [((), (1, 2)), ((2,), (1, 3)), ((), (2, 3)), ((), (1, 4))],
                 id="extra-type"),
    pytest.param((1, 2, 3), 2, [((), (1, 2)), ((2,), (1, 3)), ((), (1, 4))], id="foreign-type"),
    pytest.param((1, 2, 3), 2, [((), (1, 2)), ((4,), (1, 3)), ((), (2, 3))],
                 id="foreign-root-color"),
    pytest.param((2, 5, 7), 2, [((), (2, 5)), ((5,), (2, 7)), ((9,), (5, 7))],
                 id="foreign-root-color-gapped"),
    pytest.param((1,), 2, [], id="fewer-colors-than-d"),
    pytest.param((1, 2, 3), 2, [((), (1, 2)), ((), (1, 3)), ((), (2, 3))], id="all-roots-empty"),
])
def test_certificate_rejects_malformed_type_maps(colors, d, cubes):
    q = Cubillage(colors, d, cubes)
    assert validate(q) is not None
    assert not certified(q)
    with pytest.raises(CubillageError):
        find_flips(q)
    with pytest.raises(CubillageError):
        apply_flip(q, colors[:d + 1] if len(colors) > d else (1, 2, 3))
    code, out, err = flips_cli(q)
    assert code == 1 and not out and err.startswith("error: ")


def spectrum_codes(q):
    """q's vertex spectra as position codes in its colors, as from_spectra codes them."""
    index = {c: i for i, c in enumerate(q.colors)}
    return {_encode(v, index) for v in q.vertices()}


def test_spectrum_reader_reads_the_extreme_cubillages_and_single_flips():
    # no inversion on standard's spectrum, every one on antistandard's, and
    # exactly the flipped parent after each flip of standard
    for d in range(1, 7):
        for n in range(d + 1, 11):
            colors = tuple(range(1, n + 1))
            bottom = standard(colors, d)
            assert _mask_of_spectra(n, d, spectrum_codes(bottom)) == 0, (n, d)
            top = spectrum_codes(antistandard(colors, d))
            assert _mask_of_spectra(n, d, top) == (1 << comb(n, d + 1)) - 1, (n, d)
            for parent, _ in find_flips(bottom):
                flipped = spectrum_codes(apply_flip(bottom, parent))
                assert _mask_of_spectra(n, d, flipped) == _mask(colors, d, parent.__eq__)


@pytest.mark.parametrize("colors,d", [(range(1, 9), 3), (range(1, 10), 4), (range(1, 11), 5),
                                      ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z8_3", "Z9_4", "Z10_5", "C6_3"])
def test_spectrum_reader_matches_the_per_subset_oracle_on_seeded_walks(colors, d):
    rng = random.Random(len(colors) * 10 + d)
    colors, n = tuple(colors), len(colors)
    q = standard(colors, d)
    for step in range(24):
        if step % 4 == 0:
            codes = spectrum_codes(q)
            assert _mask_of_spectra(n, d, codes) == mask_of_spectra_oracle(n, d, codes) \
                == _mask_of(fresh(q)), step
        q = apply_flip(q, rng.choice(find_flips(q))[0])


@pytest.mark.parametrize("colors", [range(1, 8), (2, 4, 5, 7, 9, 11, 12)],
                         ids=["contiguous", "sparse"])
def test_extreme_cubillages_come_with_their_masks(colors):
    # the cached mask is what the certificate reads off a fresh copy, and a
    # walk from it ends where a walk from the fresh copy, which certifies
    # its mask first, ends
    colors = tuple(colors)
    for d in range(1, 6):
        for extreme in (standard, antistandard):
            q = extreme(colors, d)
            assert q._cache["mask"] == _mask_of(fresh(q)), (extreme, d)
            seed = len(colors) * 10 + d
            assert walk(q, 12, random.Random(seed)) == walk(fresh(q), 12, random.Random(seed))


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 8) for d in range(1, n + 1)] + [(8, 5)])
def test_carried_search_matches_the_stateless_oracle(n, d):
    # d >= n-1 leaves no packets: every bit is a raising step of the empty mask
    steps = _masks(n, d, MAX_STATES)
    assert steps == masks_oracle(n, d)
    listed = set()
    for inv in steps:
        assert not listed or any(inv ^ 1 << k in listed for k in range(inv.bit_length())
                                 if inv >> k & 1), inv
        listed.add(inv)


def test_state_cap_refuses_exactly_past_the_count():
    assert len(_masks(6, 2, 908)) == 908
    with pytest.raises(ScaleGuardError, match="^state count passed the cap 907$"):
        _masks(6, 2, 907)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 8) for d in range(1, n + 1)] + [(8, 5)])
def test_walk_gives_every_mask_the_roots_of_the_root_rule(n, d):
    colors, steps = tuple(range(1, n + 1)), _masks(n, d, MAX_STATES)
    roots = _walk(n, d, steps)
    assert roots.keys() == steps.keys()
    for inv, got in roots.items():
        assert list(got) == [root for root, _ in _cubes(colors, d, inv)], inv
    # the poset's elements come from the same walk over its covers
    poset, types = BruhatPoset(n, d, steps), tuple(subsets(colors, d))
    assert [tuple(q._root_by_type.items()) for q in poset.elements] == [
        tuple(zip(types, roots[inv])) for inv in poset.masks]


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 8) for d in range(1, n + 1)] + [(8, 5)])
def test_dict_walk_gives_every_mask_its_own_table_of_the_tuple_walk(n, d):
    steps, types = _masks(n, d, MAX_STATES), tuple(subsets(tuple(range(1, n + 1)), d))
    roots, tables = _walk(n, d, steps), _walk(n, d, steps, tables=True)
    assert list(tables) == list(roots)
    assert len({id(table) for table in tables.values()}) == len(tables)
    for inv, table in tables.items():
        assert list(table.items()) == list(zip(types, roots[inv])), inv
    values = [r for table in tables.values() for r in table.values()]
    assert len({id(r) for r in values}) == len(set(values))
    # enumerate_cubillages adopts the dicts: one table per cubillage, in type order
    qs = enumerate_cubillages(n, d)
    assert len({id(q._root_by_type) for q in qs}) == len(qs) == len(tables)
    assert all(list(q._root_by_type) == list(types) for q in qs)


@pytest.mark.parametrize("n,d", [(6, 2), (7, 3), (8, 5)])
def test_walk_interns_equal_roots(n, d):
    roots = [r for rs in _walk(n, d, _masks(n, d, MAX_STATES)).values() for r in rs]
    assert len({id(r) for r in roots}) == len(set(roots))


@pytest.mark.parametrize("colors,d", [(range(1, 9), 3), (range(1, 10), 4),
                                      ((2, 4, 5, 7, 9, 11), 3)], ids=["Z8_3", "Z9_4", "C6_3"])
def test_apply_flip_patches_a_copy_of_its_input_table(colors, d):
    rng = random.Random(len(colors) * 10 + d)
    colors = tuple(colors)
    q = standard(colors, d)
    for _ in range(30):
        flips = find_flips(q)
        table, cache, inv = dict(q._root_by_type), dict(q._cache), _mask_of(q)
        for parent, _ in flips:
            flipped = apply_flip(q, parent)
            assert q._root_by_type == table and q._cache == cache
            assert flipped._root_by_type is not q._root_by_type
            assert flipped == _cubillage_of_mask(colors, d, inv ^ _mask(colors, d, parent.__eq__))
        raising = [p for p, direction in flips if direction == "raising"]
        if not raising:
            break
        q = apply_flip(q, rng.choice(raising))
