import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zonocube.colors import (
    SetSystem,
    _blocks,
    _codes,
    _encode,
    _failing_pairs,
    _positions,
    _runs,
    _weak,
    colorset,
    interval_rank,
    is_peripheral,
    is_r_separated,
    is_weakly_k_separated,
    packet,
    parity,
    separation_blocks,
)
from zonocube.geom import Realization, det_sign


def all_subsets(n):
    return [tuple(s) for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]


small_sets = st.builds(lambda xs: tuple(sorted(xs)), st.frozensets(st.integers(1, 9), max_size=9))


# ---------------------------------------------------------------- parity

def test_parity_examples():
    assert parity(6, (2, 4)) == "even"
    assert parity(1, (2,)) == "odd"
    assert parity(4, (1, 2, 3)) == "even"
    # oracle for the last one: an integer Vandermonde determinant
    assert det_sign((1, 2, 3), 4, Realization((1, 2, 3, 4), 4)) == 1


def test_parity_rejects_member():
    with pytest.raises(ValueError):
        parity(4, (2, 4))


def test_top_color_always_even():
    for n in range(2, 9):
        for d in range(2, 6):
            for j in itertools.combinations(range(1, n), d - 1):
                assert parity(n, j) == "even"


def test_parity_matches_determinant_sign():
    for d in range(1, 6):
        for n in range(d, 8):
            real = Realization(range(1, n + 1), d)
            for j in itertools.combinations(range(1, n + 1), d - 1):
                for i in range(1, n + 1):
                    if i in j:
                        continue
                    assert (det_sign(j, i, real) == 1) == (parity(i, j) == "even")


# ----------------------------------------------------- separation blocks

def test_separation_block_examples():
    assert separation_blocks((1, 3, 5), (2, 4, 6)) == 6
    assert not is_r_separated((1, 3, 5), (2, 4, 6), 3)
    assert separation_blocks((2,), (1, 3)) == 3
    assert is_r_separated((2,), (1, 3), 2)
    assert not is_r_separated((2,), (1, 3), 1)
    assert separation_blocks((1, 2), (1, 2, 5, 6)) == 1
    assert is_r_separated((1, 2), (1, 2, 5, 6), 0)
    assert separation_blocks((1, 2), (1, 2)) == 0
    # any iterables of colors, each read once
    assert separation_blocks(iter((1, 3, 5)), (c for c in (2, 4, 6))) == 6
    assert is_weakly_k_separated(iter((1, 4)), iter((2, 3)), 1)


def _chain_oracle(x, y, r):
    """Direct definition: no increasing chain of r+2 elements alternating
    between the two differences."""
    sx, sy = set(x), set(y)
    diff = sorted(sx ^ sy)
    for chain in itertools.combinations(diff, r + 2):
        sides = [c in sx for c in chain]
        if all(a != b for a, b in zip(sides, sides[1:])):
            return False
    return True


def test_separation_agrees_with_chain_search():
    for n in range(0, 8):
        universe = all_subsets(n)
        for x, y in itertools.combinations_with_replacement(universe, 2):
            m = separation_blocks(x, y)
            for r in range(0, 5):
                assert (m <= r + 1) == _chain_oracle(x, y, r)


@given(small_sets, small_sets, st.integers(0, 6))
def test_separation_symmetric_reflexive(x, y, r):
    assert is_r_separated(x, x, r)
    assert is_r_separated(x, y, r) == is_r_separated(y, x, r)


@given(small_sets, small_sets)
def test_separation_monotone_in_r(x, y):
    flags = [is_r_separated(x, y, r) for r in range(0, 10)]
    assert flags == sorted(flags)
    assert flags[-1]


# ------------------------------------------------------- weak separation

def test_weak_separation_examples():
    assert is_weakly_k_separated((1, 5), (2, 3, 4), 1)
    assert is_weakly_k_separated((1, 5), (2, 4), 1)
    assert not is_weakly_k_separated((1, 5), (3,), 1)
    assert not is_weakly_k_separated((2, 5), (1, 3, 6), 3)


def test_weak_separation_rejects_even_k():
    with pytest.raises(ValueError):
        is_weakly_k_separated((1,), (2,), 2)
    with pytest.raises(ValueError):
        is_weakly_k_separated((1,), (2,), 0)


def test_weak_separation_weaker_than_strong():
    universe = all_subsets(6)
    for x, y in itertools.combinations(universe, 2):
        for k in (1, 3):
            if is_r_separated(x, y, k):
                assert is_weakly_k_separated(x, y, k)


def test_equal_sizes_make_weak_equal_strong():
    # with equal sizes weak k-separation coincides with (k+1)-separation
    universe = all_subsets(6)
    for x, y in itertools.combinations(universe, 2):
        if len(x) != len(y):
            continue
        for k in (1, 3):
            assert is_weakly_k_separated(x, y, k) == is_r_separated(x, y, k + 1)


@given(small_sets, small_sets, st.sampled_from([1, 3, 5]))
def test_weak_separation_symmetric(x, y, k):
    assert is_weakly_k_separated(x, y, k) == is_weakly_k_separated(y, x, k)


def test_union_codes_keep_the_order_of_any_pair():
    sets = [(2, 10**12), (), (1, 3, 10**12), (3,)]
    assert _codes(sets) == [0b1010, 0, 0b1101, 0b100]
    for (x, cx), (y, cy) in itertools.combinations(zip(sets, _codes(sets)), 2):
        assert _blocks(cx, cy) == set_blocks(x, y)


def test_failing_pairs_come_in_list_order():
    sets = [(1, 3, 5), (2, 4, 6), (1,), (2, 4)]
    assert list(_failing_pairs(sets, lambda x, y: _blocks(x, y) > 2)) == [
        ((1, 3, 5), (2, 4, 6)), ((1, 3, 5), (2, 4))]
    assert list(_failing_pairs([], _blocks)) == []


def test_a_huge_color_is_one_position():
    assert separation_blocks((1,), (10**12,)) == 2
    assert is_r_separated((1,), (10**12,), 1)
    assert interval_rank((1, 10**12)) == 2
    assert is_weakly_k_separated((1, 3), (2, 10**12), 1) is False
    assert is_peripheral((1, 3), 3, 3)
    with pytest.raises(ValueError, match="leaves the colors 1..3"):
        is_peripheral((5,), 3, 2)



def test_positions_answer_as_the_dict_of_colors():
    for n in (0, 1, 2, 4, 64, 65, 70):
        table = {c: c - 1 for c in range(1, n + 1)}
        for c in (-1, 0, 1, 2, n - 1, n, n + 1, 1.0, 2.5, True, False, "1", float("inf"),
                  float(n), n - 0.5, 10**30):
            want = table[c] if c in table else KeyError
            try:
                got = _positions(n)[c]
            except KeyError:
                got = KeyError
            assert got == want and type(got) is type(want), (n, c)


def test_is_peripheral_keeps_nothing_of_size_n():
    # the index of the colors 1..n is one bound, and the complement of x is
    # not built, so a large n costs what x costs
    tracemalloc.start()
    try:
        assert is_peripheral((1,), 10**7, 2)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert not is_peripheral((1, 3), 10**7, 2)
    assert is_peripheral((1, 2), 10**7, 2) and is_peripheral((2, 3), 10**7, 3)
    with pytest.raises(ValueError, match="leaves the colors"):
        is_peripheral((10**7 + 1,), 10**7, 2)


# ------------------------------------------------------- interval ranks

def test_interval_rank():
    assert interval_rank(()) == 0
    assert interval_rank((1, 3, 5)) == 3
    assert interval_rank((1, 2, 3)) == 1
    assert interval_rank((2, 3, 5, 6, 9)) == 3


def test_peripheral_examples():
    assert not is_peripheral((1, 3, 5), 6, 4)
    for d in range(1, 6):
        assert is_peripheral((), 6, d)
    count = sum(1 for x in all_subsets(6) if is_peripheral(x, 6, 4))
    assert count == 52  # 64 - 12 clock sets


def test_clock_sets_are_the_non_peripherals():
    clock = {(1, 3, 5), (3, 5), (2, 3, 5), (2, 5), (2, 4, 5), (2, 4), (2, 4, 6),
             (1, 2, 4, 6), (1, 4, 6), (1, 3, 4, 6), (1, 3, 6), (1, 3, 5, 6)}
    assert {x for x in all_subsets(6) if not is_peripheral(x, 6, 4)} == clock


# ------------------------------------------------ kernels on bitmask codes
# Each kernel is checked on every ordered pair of subsets of [7] (or every
# subset of [n], n <= 8) against the set-based body it replaced.

def set_blocks(x, y):
    """The block count as separation_blocks computed it on sets."""
    sx, sy = set(x), set(y)
    m, prev = 0, None
    for c in sorted(sx ^ sy):
        side = c in sx
        if side != prev:
            m += 1
            prev = side
    return m


def tuple_weak(x, y, k):
    """Weak k-separation as is_weakly_k_separated computed it on tuples."""
    m = set_blocks(x, y)
    if m <= k + 1:
        return True
    if m > k + 2:
        return False
    first = min(set(x) ^ set(y))
    surrounding, other = (x, y) if first in set(x) else (y, x)
    return len(set(surrounding)) <= len(set(other))


def listed_interval_rank(x):
    """interval_rank by its definition: the members whose predecessor is missing."""
    xs = sorted(set(x))
    return sum(1 for i, c in enumerate(xs) if i == 0 or c != xs[i - 1] + 1)


def _code(x, n=7):
    """x coded by position in 1..n."""
    return _encode(x, _positions(n))


def test_code_sets_bit_c_minus_1_for_color_c():
    assert _code(()) == 0
    assert _code((1, 3, 7)) == 0b1000101
    assert all(_code(x) == sum(1 << (c - 1) for c in x) for x in all_subsets(7))


def test_block_kernel_matches_the_set_count_and_the_chain_search():
    universe = all_subsets(7)
    codes = [_code(x) for x in universe]
    for x, cx in zip(universe, codes):
        for y, cy in zip(universe, codes):
            m = _blocks(cx, cy)
            assert m == set_blocks(x, y), (x, y)
            for r in range(5):
                assert (m <= r + 1) == _chain_oracle(x, y, r), (x, y, r)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_weak_kernel_matches_the_tuple_rule(k):
    universe = all_subsets(7)
    codes = [_code(x) for x in universe]
    for x, cx in zip(universe, codes):
        for y, cy in zip(universe, codes):
            assert _weak(cx, cy, k) == tuple_weak(x, y, k), (x, y)


def test_runs_kernel_gives_interval_ranks_and_the_peripheral_test():
    for n in range(9):
        full = (1 << n) - 1
        for x in all_subsets(n):
            comp = [c for c in range(1, n + 1) if c not in x]
            code = _code(x, n)
            assert _runs(code) == listed_interval_rank(x) == interval_rank(x)
            ranks = listed_interval_rank(x) + listed_interval_rank(comp)
            for d in range(1, n + 2):
                peripheral = ranks <= d
                assert (_runs(code) + _runs(full & ~code) <= d) == peripheral, (x, n, d)
                assert is_peripheral(x, n, d) == peripheral

# --------------------------------------------------------------- packets

def test_packet_examples():
    assert packet((1, 2, 3), 2) == ((1, 2), (1, 3), (2, 3))
    assert packet(range(1, 7), 5) == (
        (1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6),
        (1, 2, 4, 5, 6), (1, 3, 4, 5, 6), (2, 3, 4, 5, 6))
    # reversing gives the antilexicographic order
    assert tuple(reversed(packet((2, 5, 7), 2))) == ((5, 7), (2, 7), (2, 5))


def test_packet_rejects_wrong_size():
    with pytest.raises(ValueError):
        packet((1, 2, 3), 3)


# ------------------------------------------------------------- SetSystem

def test_setsystem_json_roundtrip():
    ss = SetSystem(6, [(2, 4, 6), (2, 3, 5), (1, 3, 6)])
    text = ss.to_json()
    assert text == '{"n": 6, "sets": [[1, 3, 6], [2, 3, 5], [2, 4, 6]]}'
    assert SetSystem.from_json(text) == ss


def test_setsystem_membership_canonicalizes_the_query():
    ss = SetSystem(3, [[1, 3]])
    assert (3, 1) in ss and [1, 3] in ss and (1, 2) not in ss


def test_setsystem_rejects_duplicates_and_strays():
    with pytest.raises(ValueError):
        SetSystem(4, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        SetSystem(3, [(4,)])
    for n in (4.5, 4.0, True, "4", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            SetSystem(n, [(1,)])


def test_colorset_rejects_bad_input():
    with pytest.raises(ValueError):
        colorset((1, 1))
    with pytest.raises(ValueError):
        colorset((0, 2))
    # only int members: no float, even a whole one, no bool, no string
    for items in ((1.0,), (1.5, 2), (True, 2), (False,), ("1",)):
        with pytest.raises(ValueError, match="colors must be integers"):
            colorset(items)


def colorset_pairwise(items):
    """colorset as it was, with its duplicates found by a pairwise scan."""
    cs = tuple(sorted(items))
    if not {int}.issuperset(map(type, cs)):
        raise ValueError(f"colors must be integers, got {cs}")
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ValueError(f"duplicate colors in {cs}")
    if cs and cs[0] < 1:
        raise ValueError(f"colors must be positive integers, got {cs}")
    return cs


def answer(f, items):
    try:
        return f(items)
    except Exception as exc:  # the exception is the answer compared
        return type(exc), str(exc)


# mostly small ints, so that repeats, 0 and negatives are common
mixed_colors = st.lists(st.one_of(st.integers(-2, 6), st.integers(-2, 6), st.integers(-2, 6),
                                  st.booleans(), st.floats(-2, 6), st.text(max_size=1)),
                        max_size=8)


@settings(max_examples=500, derandomize=True)
@given(mixed_colors)
def test_colorset_answers_as_the_pairwise_scan(items):
    assert answer(colorset, items) == answer(colorset_pairwise, items)
