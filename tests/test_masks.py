"""The validity certificate of the inversion masks against validate(), the
root tables that the flip search carries and that flips patch, and the
mask read off vertex spectra."""

import io
import itertools
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from mask_oracles import mask_of_spectra_oracle, masks_oracle

from zonocube.bruhat import MAX_STATES, BruhatPoset, _masks, bruhat_poset, enumerate_cubillages
from zonocube.cli import main
from zonocube.colors import _encode, add, minus, subsets
from zonocube.cubillage import (
    Cubillage, CubillageError, ScaleGuardError, antistandard, standard, validate)
from zonocube.masks import (
    _blocking, _cubes, _cubillage_of_mask, _free, _mask, _mask_of, _mask_of_spectra, _root_ranks,
    _steps, _toggle, _toggles, _walk)
from zonocube.order import apply_flip, find_flips, natural_order
from zonocube.systems import inversions


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


@pytest.mark.parametrize("n,d,every", [(5, 2, 1), (6, 3, 1), (7, 4, 5)])
def test_sparse_colors_answer_as_their_contiguous_twin(n, d, every):
    # the colors 1..n take no path of their own: relabelled onto sparse
    # colors, a cubillage lists its twin's flips, flips to its twin's flips,
    # and has its twin's inversions and natural order, all relabelled
    colors = (2, 4, 5, 7, 9, 11, 12)[:n]
    name = dict(zip(range(1, n + 1), colors))

    def rename(s):
        return tuple(name[c] for c in s)

    def renamed(q):
        return {rename(t): rename(r) for t, r in q._root_by_type.items()}

    for q in list(enumerate_cubillages(n, d))[::every]:
        p = Cubillage(colors, d, [(rename(c.root), rename(c.type)) for c in q.cubes])
        assert validate(p) is None
        flips = find_flips(q)
        assert find_flips(p) == tuple((rename(k), way) for k, way in flips)
        for k, _ in flips:
            assert apply_flip(p, rename(k))._root_by_type == renamed(apply_flip(q, k)), k
        assert inversions(p) == {rename(k) for k in inversions(q)}
        assert natural_order(p).relations == tuple(
            (rename(a), rename(b)) for a, b in natural_order(q).relations)


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


@pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (7, 4)])
def test_toggle_carries_the_packet_state_of_every_free_bit(n, d):
    # raising and lowering: the carried state of a free bit's toggle is the
    # scanned one, and a bit's blocking count is the number of packets
    # through it whose row has no transition; _toggle leaves the state it copies
    size, through = comb(n, d + 1), _toggles(n, d)
    for inv in _masks(n, d, MAX_STATES):
        state = _blocking(n, d, inv)
        free = _free(state)
        assert free >> size == 0, inv
        for k in range(size):
            assert state[k] == sum(row[state[j]] is None for j, _, row in through[k]), (inv, k)
            if free >> k & 1:
                assert _toggle(state, through[k]) == _blocking(n, d, inv ^ 1 << k), (inv, k)
        assert state == _blocking(n, d, inv)


def test_state_cap_refuses_exactly_past_the_count():
    assert len(_masks(6, 2, 908)) == 908
    with pytest.raises(ScaleGuardError, match="^state count passed the cap 907$"):
        _masks(6, 2, 907)


def decoded(n, d, key):
    """The roots in type order that a key of _walk stands for."""
    names = _root_ranks(n, d)[0]
    return [names[i][r] for i, r in enumerate(key)]


WALKED = [(n, d) for n in range(1, 8) for d in range(1, n + 1)] + [(8, 5)]


@pytest.mark.parametrize("n,d", WALKED)
def test_walk_gives_every_mask_the_roots_of_the_root_rule(n, d):
    colors, steps = tuple(range(1, n + 1)), _masks(n, d, MAX_STATES)
    keys = _walk(n, d, steps)
    assert keys.keys() == steps.keys()
    for inv, key in keys.items():
        assert type(key) is bytes and len(key) == comb(n, d), inv
        assert decoded(n, d, key) == [root for root, _ in _cubes(colors, d, inv)], inv
    # the poset's elements come from the same walk over its covers
    poset, types = BruhatPoset(n, d, steps), tuple(subsets(colors, d))
    assert [tuple(q._root_by_type.items()) for q in poset.elements] == [
        tuple(zip(types, decoded(n, d, keys[inv]))) for inv in poset.masks]


@pytest.mark.parametrize("n,d", WALKED)
def test_dict_walk_gives_every_mask_its_own_table_of_the_tuple_walk(n, d):
    steps, types = _masks(n, d, MAX_STATES), tuple(subsets(tuple(range(1, n + 1)), d))
    keys, walk = _walk(n, d, steps), _walk(n, d, steps, tables=True)
    assert list(walk) == list(keys)
    assert len({id(table) for _, table in walk.values()}) == len(walk)
    names = _root_ranks(n, d)[0]
    for inv, (key, table) in walk.items():
        assert key == keys[inv], inv
        assert list(table.items()) == list(zip(types, decoded(n, d, key))), inv
        # every root is the rank table's own object
        assert all(r is names[i][k] for i, (r, k) in enumerate(zip(table.values(), key))), inv
    # enumerate_cubillages adopts the dicts: one table per cubillage, in type order
    qs = enumerate_cubillages(n, d)
    assert len({id(q._root_by_type) for q in qs}) == len(qs) == len(walk)
    assert all(list(q._root_by_type) == list(types) for q in qs)


@pytest.mark.parametrize("n,d", [(6, 2), (7, 3), (8, 5), (10, 1), (11, 2)])
def test_rank_table_lists_every_root_once_in_tuple_order(n, d):
    colors = tuple(range(1, n + 1))
    names, rows = _root_ranks(n, d)
    assert len(names) == comb(n, d) and len(rows) == comb(n, d + 1)
    for t, roots in zip(subsets(colors, d), names):
        outside = [c for c in colors if c not in t]
        assert list(roots) == sorted(
            s for size in range(len(outside) + 1) for s in itertools.combinations(outside, size))
        assert roots[0] == ()
    # each row is _flip's patch on ranks: the rank of the root with c toggled
    for k, row in zip(subsets(colors, d + 1), rows):
        assert [(names[i], t) for i, _, t in row] == [
            (names[list(subsets(colors, d)).index(t)], t) for t in (minus(k, (c,)) for c in k)]
        for (i, ranks, t), c in zip(row, k):
            assert [names[i][r] for r in ranks] == [
                minus(root, (c,)) if c in root else add(root, c) for root in names[i]], (k, c)


@pytest.mark.parametrize("n,d", [(6, 2), (7, 3), (8, 5)])
def test_walk_interns_equal_roots(n, d):
    # equal roots of different types are one object of the rank table, and
    # the dicts of the walk hold no other root objects
    every = [r for roots in _root_ranks(n, d)[0] for r in roots]
    assert len({id(r) for r in every}) == len(set(every))
    walk = _walk(n, d, _masks(n, d, MAX_STATES), tables=True)
    held = [r for _, table in walk.values() for r in table.values()]
    assert {id(r) for r in held} <= {id(r) for r in every}
    assert len({id(r) for r in held}) == len(set(held)) > 1


@pytest.mark.parametrize("n,d", WALKED)
def test_sorting_by_walk_keys_sorts_by_the_root_tuples(n, d):
    keys = _walk(n, d, _masks(n, d, MAX_STATES))
    assert sorted(keys, key=keys.get) == sorted(keys, key=lambda inv: decoded(n, d, keys[inv]))


def partial_steps(n, d, count):
    """A hand-built steps dict of _walk: the masks met first by raising
    steps from the empty mask, each with every raising step, count of them
    listed, each after a mask that reaches it."""
    steps, todo = {}, [0]
    for inv in todo:
        if len(steps) == count:
            break
        steps[inv] = up = _steps(n, d, inv) & ~inv
        todo += [inv | 1 << k for k in range(up.bit_length()) if up >> k & 1
                 and inv | 1 << k not in todo]
    return steps


@pytest.mark.parametrize("n,d", [(10, 1), (11, 2)])
def test_tuple_keys_past_a_byte_follow_the_root_rule_and_the_tuple_order(n, d):
    # n - d > 8: a rank needs more than one byte, so keys are tuples of ints
    colors, steps = tuple(range(1, n + 1)), partial_steps(n, d, 60)
    keys, walk = _walk(n, d, steps), _walk(n, d, steps, tables=True)
    assert len(keys) > len(steps) and list(walk) == list(keys)
    assert max(r for key in keys.values() for r in key) > 255
    for inv, key in keys.items():
        roots = [root for root, _ in _cubes(colors, d, inv)]
        assert type(key) is tuple and decoded(n, d, key) == roots, inv
        assert walk[inv][0] == key and list(walk[inv][1].values()) == roots, inv
    assert sorted(keys, key=keys.get) == sorted(keys, key=lambda inv: decoded(n, d, keys[inv]))


def test_state_cap_refuses_before_the_rank_table_is_built():
    # the (20,1) table would hold 20 * 2^19 roots; the poset is refused at a
    # lower cap, as the default one costs 1.6 s a search
    before = _root_ranks.cache_info()
    with pytest.raises(ScaleGuardError, match="^state count passed the cap 200000$"):
        enumerate_cubillages(20, 1)
    with pytest.raises(ScaleGuardError, match="^state count passed the cap 20000$"):
        bruhat_poset(20, 1, max_states=20_000)
    assert _root_ranks.cache_info() == before


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
