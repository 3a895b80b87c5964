import copy
import functools
import gc
import hashlib
import itertools
import json
import os
import random
from math import comb

import pytest
from facet_oracles import _expand, _membrane
from hypothesis import given, settings, strategies as st
from mask_oracles import masks_oracle

import zonocube
import zonocube.bruhat
import zonocube.cli
import zonocube.masks
import zonocube.systems
from zonocube.bruhat import enumerate_cubillages
from zonocube.colors import (
    Colors,
    _blocks,
    _encode,
    _positions,
    _weak,
    colorset,
    is_r_separated,
    is_weakly_k_separated,
    minus,
    packet,
    subsets,
)
from zonocube.cubillage import (
    Cubillage,
    CubillageError,
    antistandard,
    boundary_plates,
    standard,
    validate,
)
from zonocube.masks import _bits, _sets
from zonocube.order import (
    apply_flip,
    enumerate_stacks,
    find_flips,
    membrane_of_stack,
    natural_order,
    plate_vertices,
    side_of_membrane,
)
from zonocube.systems import (
    AdmissibleOrder,
    NotRealizableError,
    ScaleGuardError,
    _check_dimensions,
    _beyond,
    _automorphisms,
    _check_separated,
    _complement,
    _core_first,
    _count,
    _count_cliques,
    _exists,
    _first_clique,
    _lex,
    _max_clique,
    _maximal_cliques,
    _read,
    _reflections,
    _relation,
    _split,
    extension_search,
    from_consistent,
    from_order,
    from_spectra,
    inversions,
    is_consistent,
    order_of,
    weak_separation_suite,
)

CLOCK = [(2, 4), (2, 4, 5), (2, 5), (2, 3, 5), (3, 5), (1, 3, 5), (1, 3, 5, 6),
         (1, 3, 6), (1, 3, 4, 6), (1, 4, 6), (1, 2, 4, 6), (2, 4, 6)]


def crange(n):
    return tuple(range(1, n + 1))


def all_subsets(n):
    return [tuple(s) for k in range(n + 1) for s in itertools.combinations(crange(n), k)]


# -------------------------------------------------------------- inversions

def test_inversions_extremes():
    for n, d in ((4, 2), (5, 3), (6, 2)):
        full = {tuple(t) for t in subsets(crange(n), d + 1)}
        assert inversions(standard(crange(n), d)) == frozenset()
        assert inversions(antistandard(crange(n), d)) == full


def test_single_flip_inversion():
    q = apply_flip(standard((1, 2, 3), 2), (1, 2, 3))
    assert inversions(q) == {(1, 2, 3)}


def test_inversions_injective_and_match_packet_directions():
    seen = set()
    for q in enumerate_cubillages(4, 2):
        inv = inversions(q)
        assert inv not in seen
        seen.add(inv)
        order = order_of(q)
        # the inversion mask of the order is the cubillage's
        assert frozenset(_sets(q.colors, q.d, order._inv)) == inv
        for parent in subsets(crange(4), 3):
            expected = "antilex" if tuple(parent) in inv else "lex"
            assert order.packet_direction(parent) == expected


@pytest.mark.parametrize("cubes", [
    pytest.param([((3,), (1, 2)), ((), (1, 3)), ((), (2, 3))], id="roots-break-the-root-rule"),
    pytest.param([((), (1, 2)), ((), (2, 3))], id="missing-type"),
])
def test_inversions_certify_their_input(cubes):
    # read naively off the roots, these gave {(1, 2, 3)} and frozenset()
    q = Cubillage((1, 2, 3), 2, cubes)
    assert validate(q) is not None
    with pytest.raises(CubillageError):
        inversions(q)


# -------------------------------------------------------- admissible order

def test_order_of_standard_is_lex_chain():
    order = order_of(standard((1, 2, 3), 2))
    assert order.leq((1, 2), (1, 3)) and order.leq((1, 3), (2, 3))
    assert not order.leq((2, 3), (1, 2))
    assert order.packet_direction((1, 2, 3)) == "lex"


def test_order_of_injective():
    orders = {order_of(q) for q in enumerate_cubillages(4, 2)}
    assert len(orders) == 8


def test_admissible_order_rejects_non_admissible():
    # only the pair 12<13 given: packet {1,2,3} is not a chain
    with pytest.raises(ValueError):
        AdmissibleOrder((1, 2, 3), 2, [((1, 2), (1, 3))])


def test_admissible_order_rejects_cycle():
    rels = [((1, 2), (1, 3)), ((1, 3), (2, 3)), ((2, 3), (1, 2))]
    with pytest.raises(ValueError):
        AdmissibleOrder((1, 2, 3), 2, rels)


def test_order_of_names_the_packet_a_missing_type_breaks():
    # the certificate of the inversion masks refuses the missing type (1, 3)
    q = Cubillage((1, 2, 3), 2, [((), (1, 2)), ((), (2, 3))])
    with pytest.raises(CubillageError, match=r"^type map is not a bijection "):
        order_of(q)


def test_admissible_order_json_roundtrip():
    order = order_of(standard(crange(4), 2))
    again = AdmissibleOrder.from_json(order.to_json())
    assert again == order


# ------------------------------------------------------------- from_order

def test_from_order_roundtrip():
    for q in enumerate_cubillages(4, 2):
        assert from_order(order_of(q)) == q


@pytest.mark.parametrize("d", [2, 3])
def test_order_of_is_the_natural_order_on_sparse_colors(d, monkeypatch):
    colors = (2, 4, 5, 7, 9)
    for q in raising_walk(colors, d, 8, random.Random(d)):
        order = order_of(q)
        assert order is natural_order(q)
        assert order == AdmissibleOrder(q.colors, q.d, natural_order(q).relations)
        assert from_order(order) == q
    sorts, topological = [], zonocube.cubillage._topological
    packets, packet_direction = [], AdmissibleOrder.packet_direction

    def counted(size, relations):
        sorts.append(size)
        return topological(size, relations)

    def counted_packet(order, parent):
        packets.append(parent)
        return packet_direction(order, parent)

    # validate's cycle check and the closure of every AdmissibleOrder run the
    # one topological sort, looked up in the cubillage module
    monkeypatch.setattr(zonocube.cubillage, "_topological", counted)
    monkeypatch.setattr(AdmissibleOrder, "packet_direction", counted_packet)
    q = Cubillage.from_json(q.to_json())
    assert validate(q) is None and len(sorts) == 1
    # validate leaves no natural order behind; the mask gives its antilex packets
    order = order_of(q)
    assert len(sorts) == 2 and not packets
    assert from_order(order) == q
    # the certificate reads the tunnel covers against the input order and
    # closes no natural order of the rebuilt cubillage
    assert len(sorts) == 2 and not packets


def test_from_order_refuses_an_order_that_misses_a_tunnel_cover():
    # an order whose inversion mask was swapped for another consistent one:
    # the rebuilt cubillage has a tunnel cover the order does not hold
    order = copy.copy(order_of(standard(crange(5), 2)))
    order._inv = 1 << _bits(5, 2)[(1, 2, 3)]
    with pytest.raises(CubillageError,
                       match="^reconstructed cubillage order is not refined by the input$"):
        from_order(order)


def test_from_order_lex_everywhere_gives_standard():
    chains = []
    for parent in subsets(crange(4), 3):
        chain = packet(parent, 2)
        chains.extend(zip(chain, chain[1:]))
    order = AdmissibleOrder(crange(4), 2, chains)
    assert from_order(order) == standard(crange(4), 2)


def test_linear_extension_reconstructs_same_cubillage():
    for q in enumerate_cubillages(4, 2):
        base = order_of(q)
        chain = base.linear_extension()
        linear = AdmissibleOrder(crange(4), 2, list(zip(chain, chain[1:])))
        assert linear.extends(base)
        assert from_order(linear) == q


# ------------------------------------------------------------- consistency

def test_consistency_trivial_cases():
    assert is_consistent([], 4)
    assert is_consistent(list(subsets(crange(4), 2)), 4)
    assert is_consistent([(1, 2, 3)], 4)


def test_consistency_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        is_consistent([(1, 2), (1, 2, 3)], 4)


def test_inversions_of_cubillages_and_membranes_are_consistent():
    for n, d in ((4, 2), (5, 3)):
        for q in enumerate_cubillages(n, d):
            assert is_consistent(inversions(q), n)
            for stack in enumerate_stacks(q):
                assert is_consistent(stack, n)


def test_consistent_subsets_of_gr42_are_the_24_membranes():
    gr = [tuple(t) for t in subsets(crange(4), 2)]
    consistent = []
    for k in range(len(gr) + 1):
        for sub in itertools.combinations(gr, k):
            if is_consistent(sub, 4):
                consistent.append(frozenset(sub))
    assert len(consistent) == 24  # cubillages of Z(4,1), i.e. 4! chain orders


def test_from_consistent_extremes():
    w = from_consistent([], 4, 2)
    assert w.plates == boundary_plates(crange(4), 2, "front")
    w2 = from_consistent(list(subsets(crange(4), 2)), 4, 2)
    assert w2.plates == boundary_plates(crange(4), 2, "back")


def test_from_consistent_exhaustive_roundtrip():
    gr = [tuple(t) for t in subsets(crange(4), 2)]
    for k in range(len(gr) + 1):
        for sub in itertools.combinations(gr, k):
            if not is_consistent(sub, 4):
                continue
            w = from_consistent(sub, 4, 2)
            assert validate(w.ambient) is None
            assert w.stack == frozenset(sub)
            assert inversions(w.projected) == frozenset(sub)


def test_from_consistent_d1():
    w = from_consistent([(2,), (4,)], 4, 1)
    assert w.stack == {(2,), (4,)}
    assert validate(w.ambient) is None


def test_from_consistent_rejects_inconsistent():
    # {13} meets the packet of {1,2,3} in its middle member only
    assert not is_consistent([(1, 3)], 4)
    with pytest.raises(ValueError):
        from_consistent([(1, 3)], 4, 2)


# ------------------------------------------------------------ from_spectra

def test_from_spectra_roundtrip():
    for n, d in ((4, 2), (5, 3)):
        for q in enumerate_cubillages(n, d):
            assert from_spectra(q.vertices(), crange(n), d) == q


def test_from_spectra_intervals_give_standard():
    for n in (3, 4, 5):
        intervals = {tuple(range(i, j + 1)) for i in crange(n) for j in range(i, n + 1)}
        intervals.add(())
        assert from_spectra(intervals, crange(n)) == standard(crange(n), 2)


def test_from_spectra_size_bound():
    for n, d in ((4, 2), (5, 3)):
        for q in enumerate_cubillages(n, d):
            assert len(q.vertices()) == sum(comb(n, k) for k in range(d + 1))
    with pytest.raises(ValueError):
        from_spectra([(1,), (2,)], (1, 2), 1)  # wrong size


def test_from_spectra_rejects_unseparated():
    sets = {(), (1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3)}  # 13 vs 2 not 1-separated
    with pytest.raises(ValueError):
        from_spectra(sets, (1, 2, 3), 2)


# -------------------------------- oracle: the recursive spectra reconstruction

def from_spectra_oracle(sets, colors, d: int | None = None) -> Cubillage:
    """Reconstruct the cubillage whose vertex spectra are the given system.

    Requires a (d-1)-separated system of size C(n,<=d).  Splits on the top
    color: the doubled spectra S0 ∩ S2 are the membrane along which the
    reconstruction of the smaller system is expanded.
    """
    cs = colorset(colors)
    members = {colorset(s) for s in sets}
    if d is None:
        sizes = [k for k in range(len(cs) + 1)
                 if sum(comb(len(cs), j) for j in range(k + 1)) == len(members)]
        if not sizes:
            raise ValueError(f"size {len(members)} is not C({len(cs)},<=d) for any d")
        d = sizes[0]
    _check_dimensions(len(cs), d)
    if len(members) != sum(comb(len(cs), j) for j in range(d + 1)):
        raise ValueError("system size is not C(n,<=d)")
    ordered = sorted(members)
    _check_separated(ordered, d - 1)
    if any(not set(s) <= set(cs) for s in members):
        raise NotRealizableError("spectra leave the color universe")
    return _from_spectra_oracle(members, cs, d)


def _from_spectra_oracle(members, cs: Colors, d: int) -> Cubillage:
    if len(cs) == d:
        if members != {s for k in range(d + 1) for s in subsets(cs, k)}:
            raise NotRealizableError("base case is not the full cube spectrum")
        return Cubillage._adopt(cs, d, {cs: ()})
    m = cs[-1]
    s0 = {s for s in members if m not in s}
    s2 = {minus(s, (m,)) for s in members if m in s}
    inner = _from_spectra_oracle(s0 | s2, cs[:-1], d)
    seam_vertices = s0 & s2
    try:
        stack = frozenset(
            t for t in inner.types() if side_of_membrane(t, seam_vertices) == "before")
    except CubillageError as exc:
        raise NotRealizableError(f"seam spectra do not describe a membrane: {exc}") from exc
    if not natural_order(inner).is_ideal(stack):
        raise NotRealizableError("seam stack is not an order ideal")
    if plate_vertices(_membrane(inner, stack)) != seam_vertices:
        raise NotRealizableError("seam membrane does not reproduce the doubled spectra")
    return _expand(inner, stack, m)


def outcome(reconstruct, *args):
    """The cubillage reconstruct returns, or the type and message it raises."""
    try:
        return reconstruct(*args)
    except Exception as exc:  # the exception type is part of the answer
        return type(exc), str(exc)


def raising_walk(colors, d, steps, rng):
    """The cubillages met on a seeded walk of raising flips from the standard one."""
    q = standard(colors, d)
    out = [q]
    for _ in range(steps):
        raising = [p for p, way in find_flips(q) if way == "raising"]
        if not raising:
            break
        q = apply_flip(q, rng.choice(raising))
        out.append(q)
    return out


WALKS = [(crange(8), 3, 28), (crange(9), 4, 32), (crange(10), 5, 30), (crange(6), 1, 15),
         (crange(9), 1, 36), ((2, 4, 5, 7, 9, 11), 2, 20), ((2, 4, 5, 7, 9, 11), 3, 15)]


@pytest.mark.parametrize("colors,d,steps", WALKS,
                         ids=["Z8_3", "Z9_4", "Z10_5", "Z6_1", "Z9_1", "C6_2", "C6_3"])
def test_from_spectra_matches_oracle_on_seeded_walks(colors, d, steps):
    rng = random.Random(len(colors) * 10 + d)
    walk = raising_walk(colors, d, steps, rng)
    for q in (walk[len(walk) // 2], walk[-1]):
        got = from_spectra(q.vertices(), colors, d)
        assert got == from_spectra_oracle(q.vertices(), colors, d) == q
        assert got.colors == q.colors and validate(got) is None


def perturbations(q, rng):
    """Labelled near misses of q's spectrum, one of each kind."""
    colors, spectrum = q.colors, sorted(q.vertices())
    everything = [tuple(c for i, c in enumerate(colors) if m >> i & 1)
                  for m in range(1 << len(colors))]
    outside = [s for s in everything if s not in q.vertices()]
    foreign = colors[-1] + 1
    i = rng.randrange(len(spectrum))
    yield "spectrum", spectrum
    yield "drop", spectrum[:i] + spectrum[i + 1:]
    yield "foreign-color", spectrum[:i] + [spectrum[i] + (foreign,)] + spectrum[i + 1:]
    yield "foreign-top", spectrum[:-1] + [colors + (foreign,)]
    yield "non-canonical", spectrum[:i] + [spectrum[i] + spectrum[i][:1]] + spectrum[i + 1:]
    if not outside:  # Z(d,d): every subset is a vertex and nothing flips
        return
    yield "swap", spectrum[:i] + [rng.choice(outside)] + spectrum[i + 1:]
    yield "wrong-size", spectrum + [rng.choice(outside)]
    # one set moved to where a flip takes it: still separated, another spectrum
    flipped = apply_flip(q, rng.choice(find_flips(q))[0]).vertices()
    yield "moved-separated", sorted(flipped)
    moved = [s for s in flipped if s not in q.vertices()][0]
    yield "moved-twice", spectrum[:i] + [moved] + spectrum[i + 1:]


@pytest.mark.parametrize("colors,d", [(crange(4), 1), (crange(6), 2), (crange(7), 3),
                                      (crange(8), 4), (crange(4), 4), ((2, 4, 5, 7, 9, 11), 3)],
                         ids=["Z4_1", "Z6_2", "Z7_3", "Z8_4", "Z4_4", "C6_3"])
def test_from_spectra_errors_match_oracle(colors, d, monkeypatch):
    # the mask read checks nothing, so some near misses get a mask and are
    # refused by the spectrum compare; at least one is, at every point
    read = []

    def reader(*args):
        read.append(zonocube.masks._mask_of_spectra(*args))
        return read[-1]

    monkeypatch.setattr(zonocube.systems, "_mask_of_spectra", reader)
    rng = random.Random(len(colors) * 10 + d)
    kinds, refused = set(), 0
    for q in raising_walk(colors, d, 12, rng)[::6]:
        for label, sets in perturbations(q, rng):
            for dim in (d, None):
                want = outcome(from_spectra_oracle, sets, colors, dim)
                read.clear()
                assert outcome(from_spectra, sets, colors, dim) == want, (label, dim)
                kinds.add(want[0] if isinstance(want, tuple) else "cubillage")
                if isinstance(want, tuple) and read and read[-1] is not None:
                    refused += 1  # a mask was read, so the compare refused it
    assert {"cubillage", ValueError} <= kinds
    if len(colors) > d:  # n = d has no 2-block pair, so nothing fails separation
        assert NotRealizableError in kinds
    assert refused >= 1


def test_from_spectra_certifies_the_mask_it_reads(monkeypatch):
    # handed the consistent mask of another cubillage, from_spectra compares
    # its spectrum codes with the input's and returns nothing; the input is
    # separated and inside the colors, so only the last refusal is left
    q = standard(crange(5), 2)
    other = zonocube.masks._mask_of(apply_flip(q, (1, 2, 3)))
    monkeypatch.setattr(zonocube.systems, "_mask_of_spectra", lambda n, d, codes: other)
    with pytest.raises(NotRealizableError, match="^separated system of size C.n,<=d. is not a "
                                                 "cubillage spectrum$"):
        from_spectra(q.vertices(), crange(5), 2)


# ------------------------------------- oracle: the unordered clique engines

def max_clique_oracle(adj, cand_mask):
    """Largest clique size inside cand_mask; greedy-colored branch and bound."""
    best = 0

    def order_by_color(mask):
        verts = []
        bounds = []
        color_classes = []
        m = mask
        while m:
            cls = 0
            avail = m
            while avail:
                v = (avail & -avail).bit_length() - 1
                cls |= 1 << v
                avail &= ~adj[v] & avail & ~(1 << v)
            m &= ~cls
            color_classes.append(cls)
        for ci, cls in enumerate(color_classes, start=1):
            mm = cls
            while mm:
                v = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                verts.append(v)
                bounds.append(ci)
        return verts, bounds

    def grow(mask, size):
        nonlocal best
        if not mask:
            best = max(best, size)
            return
        verts, bounds = order_by_color(mask)
        for i in range(len(verts) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = verts[i]
            grow(mask & adj[v], size + 1)
            mask &= ~(1 << v)

    grow(cand_mask, 0)
    return best


def count_cliques_oracle(adj, cand_mask, size):
    if size == 0:
        return 1
    total = 0
    mm = cand_mask
    while mm:
        v = (mm & -mm).bit_length() - 1
        mm &= mm - 1
        nxt = cand_mask & adj[v] & ~((1 << (v + 1)) - 1)
        if bin(nxt).count("1") >= size - 1:
            total += count_cliques_oracle(adj, nxt, size - 1)
    return total


def clique_witness_oracle(adj: list[int], cand_mask: int, size: int):
    """Some clique of exactly the requested size, or None."""
    if size == 0:
        return []
    mm = cand_mask
    while mm:
        v = (mm & -mm).bit_length() - 1
        mm &= mm - 1
        if bin(cand_mask & adj[v]).count("1") >= size - 1:
            rest = clique_witness_oracle(adj, cand_mask & adj[v] & ~((1 << (v + 1)) - 1), size - 1)
            if rest is not None:
                return [v] + rest
        cand_mask &= ~(1 << v)
    return None


def maximal_cliques_oracle(adj, cand_mask):
    """Every clique inside cand_mask, grown in increasing vertex order, kept
    when no vertex of cand_mask is adjacent to all of its members."""
    out = []

    def grow(chosen, common, last):
        if common == 0:
            out.append(chosen)
        for v in range(last + 1, len(adj)):
            if common >> v & 1:
                grow(chosen | 1 << v, common & adj[v], v)

    grow(0, cand_mask, -1)
    return out


# denser graphs get fewer vertices, so that the oracles' clique counts stay small
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(40, 0.1), (40, 0.3), (40, 0.5), (30, 0.7), (20, 0.9)]),
       st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 2**32 - 1), st.data())
def test_clique_engines_match_oracles(shape, keep, seed, data):
    most, density = shape
    size = data.draw(st.integers(0, most), label="vertices")
    rng = random.Random(seed)
    adj = [0] * size
    for i, j in itertools.combinations(range(size), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cand = sum(1 << v for v in range(size) if rng.random() < keep)
    best = max_clique_oracle(adj, cand)
    assert _max_clique(adj, cand) == best
    assert _core_first(adj, cand) == core_first_oracle(adj, cand)
    non = _complement(adj)
    for k in range(best + 2):
        count = count_cliques_oracle(adj, cand, k)
        assert _count_cliques(adj, cand, k) == count
        for limit in (1, 2, 3):
            assert _count(non, cand, k, limit) == min(count, limit)
        first = _first_clique(non, cand, k)
        witness = clique_witness_oracle(adj, cand, k)
        assert (None if first is None else [v for v in range(size) if first >> v & 1]) == witness
    maximal = _maximal_cliques(adj, cand)
    assert len(set(maximal)) == len(maximal)
    assert sorted(maximal) == sorted(maximal_cliques_oracle(adj, cand))


def test_count_stops_at_its_limit(monkeypatch):
    # on the complete graph K16 the first branch of every node holds a clique,
    # so limit 1 goes straight down: one _beyond call per size from 8 to 2
    adj = [((1 << 16) - 1) & ~(1 << v) for v in range(16)]
    calls = []
    monkeypatch.setattr(zonocube.systems, "_beyond", lambda *a: calls.append(a) or _beyond(*a))
    assert _count(_complement(adj), (1 << 16) - 1, 8, 1) == 1
    assert len(calls) == 7


@pytest.mark.parametrize("search,answer,nodes", [
    (lambda: weak_separation_suite(7, 1)["max_size"], 29, 7311),
    (lambda: weak_separation_suite(7, 3)["max_size"], 99, 86),
    (lambda: zonocube.bruhat.separated_system_count(8, 5), 752, 4626),
    (lambda: zonocube.bruhat.separated_system_count(7, 4), 338, 1457),
], ids=["weak-7-1", "weak-7-3", "count-8-5", "count-7-4"])
def test_search_trees_are_pinned(monkeypatch, search, answer, nodes):
    # the number of _beyond calls is the number of search nodes: a change to
    # the kernel's arithmetic must leave the answer and the tree as they are
    calls = []
    monkeypatch.setattr(zonocube.systems, "_beyond", lambda *a: calls.append(None) or _beyond(*a))
    assert search() == answer
    assert len(calls) == nodes


def is_automorphism(adj, perm):
    return all(adj[perm[v]] == sum(1 << perm[u] for u in range(len(adj)) if adj[v] >> u & 1)
               for v in range(len(adj)))


# dense shapes, so that the largest cliques often hold a vertex and its image
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([(30, 0.3), (30, 0.5), (24, 0.7), (20, 0.85)]),
       st.sampled_from([0.5, 1.0]), st.integers(0, 2**32 - 1), st.data())
def test_max_clique_prunes_orbits_of_an_involution_exactly(shape, keep, seed, data):
    most, density = shape
    size = data.draw(st.integers(0, most), label="vertices")
    rng = random.Random(seed)
    perm = list(range(size))
    moved = rng.sample(perm, 2 * rng.randint(0, size // 2))
    for a, b in zip(moved[::2], moved[1::2]):
        perm[a], perm[b] = b, a
    adj, edge = [0] * size, {}
    for i, j in itertools.combinations(range(size), 2):
        orbit = frozenset({frozenset({i, j}), frozenset({perm[i], perm[j]})})
        if edge.setdefault(orbit, rng.random() < density):  # one draw per edge orbit
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    assert is_automorphism(adj, perm)
    kept = {u for v in range(size) if rng.random() < keep for u in (v, perm[v])}
    cand = sum(1 << v for v in kept)
    best = max_clique_oracle(adj, cand)
    # listed twice, as is the identity, each image still counts once
    for symmetries in ([perm], [perm, perm, list(range(size)), list(range(size))]):
        assert _max_clique(adj, cand, symmetries) == best
    orbits = [1 << v | 1 << perm[v] for v in range(size)]
    assert [_exists(_complement(adj), cand, k, orbits) for k in range(1, best + 2)] == [True] * best + [False]


def test_exists_prunes_orbits_at_the_root_only():
    # two 4-cliques swapped by the involution: an orbit pruned below the
    # root, where the mask is a neighbourhood that the involution moves,
    # loses both of them
    perm = [2, 5, 0, 7, 6, 1, 4, 3]
    adj = [202, 105, 184, 87, 236, 150, 155, 117]
    assert is_automorphism(adj, perm)
    orbits = [1 << v | 1 << perm[v] for v in range(8)]
    assert [_exists(_complement(adj), 255, k, orbits) for k in range(1, 6)] == [True] * 4 + [False]
    assert _max_clique(adj, 255, [perm]) == 4


def first_fit_classes(adj, mask):
    """The classes of the coloring that gives each vertex of mask, in
    increasing order, the first class holding none of its neighbours."""
    classes = []
    for v in range(len(adj)):
        if mask >> v & 1:
            free = next((i for i, cls in enumerate(classes) if not adj[v] & cls), len(classes))
            if free == len(classes):
                classes.append(0)
            classes[free] |= 1 << v
    return classes


def every_clique(adj, cand_mask):
    """Every nonempty clique inside cand_mask, each grown in increasing vertex order."""
    out = []

    def grow(chosen, common, last):
        for v in range(last + 1, len(adj)):
            if common >> v & 1:
                out.append(chosen | 1 << v)
                grow(chosen | 1 << v, common & adj[v], v)

    grow(0, cand_mask, -1)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(40, 0.1), (40, 0.3), (40, 0.5), (30, 0.7), (20, 0.9)]),
       st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 2**32 - 1), st.data())
def test_beyond_leaves_what_the_first_classes_miss(shape, keep, seed, data):
    most, density = shape
    size = data.draw(st.integers(0, most), label="vertices")
    rng = random.Random(seed)
    adj = [0] * size
    for i, j in itertools.combinations(range(size), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cand = sum(1 << v for v in range(size) if rng.random() < keep)
    classes = first_fit_classes(adj, cand)
    non = _complement(adj)
    beyond = {k: _beyond(non, cand, k) for k in range(1, len(classes) + 2)}
    for k, rest in beyond.items():
        assert (rest == 0) == (len(classes) < k)
        assert rest == cand & ~sum(classes[:k - 1])
    for clique in every_clique(adj, cand):
        assert clique & beyond[clique.bit_count()]
    # each complement row holds exactly the vertices that are neither v nor its neighbours
    for v, row in enumerate(non):
        assert row == sum(1 << u for u in range(size) if u != v and not adj[v] >> u & 1)


def core_first_oracle(adj, cand_mask):
    """Reverse min-degree removal order, ties to the lowest index, with the
    degrees kept in a dict and lowered as each vertex leaves."""
    degree = {v: (adj[v] & cand_mask).bit_count() for v in bits_of(cand_mask)}
    order = []
    left = cand_mask
    while left:
        v = min(bits_of(left), key=degree.__getitem__)
        order.append(v)
        left &= ~(1 << v)
        for u in bits_of(adj[v] & left):
            degree[u] -= 1
    order.reverse()
    return order


def bits_of(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@pytest.mark.parametrize("n,k", [(7, 1), (7, 3), (8, 5)])
def test_core_first_matches_the_degree_dict_order_on_weak_graphs(n, k):
    codes, adj = weak_graph(n, k)
    full = (1 << len(codes)) - 1
    assert _core_first(adj, full) == core_first_oracle(adj, full)


def test_scale_guard_is_one_class():
    assert zonocube.ScaleGuardError is zonocube.bruhat.ScaleGuardError is ScaleGuardError
    assert zonocube.cli.ScaleGuardError is ScaleGuardError


# ------------------------------------------------------- extension search

def test_clock_triple_is_maximal_at_55():
    report = extension_search([(2, 4, 6), (2, 3, 5), (1, 3, 6)], 6, 4, "certify-maximal")
    assert report.bound == 57
    assert report.maximal_sizes == (55,)
    assert not report.completable
    assert report.gap == 2  # matches the d/2 gap reading for d=4


def test_five_consecutive_clock_sets_complete():
    sets = [(2, 4), (2, 4, 5), (2, 5), (2, 3, 5), (3, 5)]
    report = extension_search(sets, 6, 4, "complete")
    assert report.completable
    assert len(report.completion) == 57
    q = from_spectra(report.completion, crange(6), 4)
    assert validate(q) is None


def test_every_separated_pair_completes():
    for n, d in ((5, 2), (6, 4)):
        universe = all_subsets(n)
        for a, b in itertools.combinations(universe, 2):
            if is_r_separated(a, b, d - 1):
                assert extension_search([a, b], n, d, "complete").completable


def test_singletons_complete():
    for n, d in ((5, 2), (6, 3), (6, 4)):
        for x in all_subsets(n):
            assert extension_search([x], n, d, "complete").completable


def test_extension_search_rejects_unseparated_input():
    with pytest.raises(ValueError):
        extension_search([(1, 3, 5), (2, 4, 6)], 6, 4, "complete")
    with pytest.raises(ValueError):
        extension_search([(1,)], 4, 2, "other-mode")


def test_extension_search_rejects_members_outside_the_colors():
    with pytest.raises(ValueError):
        extension_search([(9,)], 4, 2)
    with pytest.raises(ValueError):
        extension_search([(1,)], 0, 1)


def test_lifted_nonpurity():
    triple = [(2, 4, 6), (2, 3, 5), (1, 3, 6)]
    assert not extension_search(triple, 7, 4, "complete").completable
    lifted = triple + [tuple(sorted(t + (7,))) for t in triple]
    assert not extension_search(lifted, 7, 5, "complete").completable



# ------------------------------ oracle: the extension search on tuples

@functools.lru_cache(maxsize=None)
def compatible_with_all(n, d):
    """The subsets of [n] (d-1)-separated from every subset, by is_r_separated."""
    universe = all_subsets(n)
    return frozenset(x for x in universe if all(is_r_separated(x, y, d - 1) for y in universe))


def extension_oracle(members, n, d):
    """The maximal completions of the members in (size, then lex) order,
    from is_r_separated on tuples and maximal_cliques_oracle.  The sets
    compatible with every subset lie in every maximal completion; the other
    sets compatible with the members are the vertices."""
    members = set(members)
    base = compatible_with_all(n, d) | members
    cands = [x for x in all_subsets(n)
             if x not in base and all(is_r_separated(x, s, d - 1) for s in members)]
    adj = [sum(1 << j for j, y in enumerate(cands) if x != y and is_r_separated(x, y, d - 1))
           for x in cands]
    completions = [tuple(sorted(base.union(x for v, x in enumerate(cands) if clique >> v & 1)))
                   for clique in maximal_cliques_oracle(adj, (1 << len(cands)) - 1)]
    return sorted(completions, key=lambda c: (len(c), c))


def spectrum_sample(n, d, fraction, rng):
    """A seeded share of the sets that a random cubillage of Z(n,d) adds to
    the ones compatible with every subset: a (d-1)-separated system."""
    q = raising_walk(crange(n), d, 2 * n, rng)[-1]
    spectra = sorted(q.vertices() - compatible_with_all(n, d))
    return rng.sample(spectra, round(fraction * len(spectra)))


def check_extension_search_against_the_oracle(n, d, fraction, seed):
    sample = spectrum_sample(n, d, fraction, random.Random(seed))
    completions = extension_oracle(sample, n, d)
    bound = sum(comb(n, i) for i in range(d + 1))
    largest = [c for c in completions if len(c) == bound]
    certify = extension_search(sample, n, d, "certify-maximal")
    assert certify.maximal_completions == tuple(completions)
    assert certify.maximal_sizes == tuple(map(len, completions))
    assert certify.completable == bool(largest)
    # certify reports the last maximum it lists; complete the lex-first one
    # with the sets in (size, then lex) order, the order its witness search reads
    assert certify.completion == (largest[-1] if largest else None)
    complete = extension_search(sample, n, d, "complete")
    assert complete.completable == bool(largest)
    assert complete.completion == min(largest, default=None,
                                      key=lambda c: sorted(c, key=lambda s: (len(s), s)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from([(5, 2), (5, 3), (6, 3), (6, 4), (7, 4)]),
       st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 2**32 - 1))
def test_extension_search_matches_the_tuple_oracle(shape, fraction, seed):
    check_extension_search_against_the_oracle(*shape, fraction, seed)


# the bench's separation samples of seed 1 at (8,3) and (8,4), with the number
# of maximal completions and the sha256 of json.dumps(maximal_completions)
SEPARATION_SEED_1 = [
    (3, [[1, 2, 3, 5], [1, 2, 3, 5, 6], [1, 2, 4, 5, 6, 8], [1, 2, 5, 8], [1, 2, 6, 8], [2, 3, 5],
         [2, 3, 5, 6], [2, 5, 6, 7], [2, 5, 6, 7, 8], [3, 5]],
     882, "39a1c20579a4b9904e8512a4193a85ffffc1363eb942a9de48e05b1701b3f283"),
    (3, [[1, 2, 3, 5, 6, 7], [1, 2, 5, 6], [1, 2, 5, 8], [1, 3, 4, 5], [1, 3, 4, 5, 6, 7], [1, 5, 7],
         [1, 5, 8], [3, 5, 6, 7, 8], [5, 7], [5, 7, 8]],
     30, "3c4659eb91f4752862ca1a098fd1155acd2dbf6a6a1bc888675da4fced24acf0"),
    (3, [[1, 2, 4, 5, 8], [1, 2, 5, 7, 8], [1, 2, 5, 8], [1, 3, 4, 5, 6], [1, 4, 5, 6, 7], [1, 5, 6, 7],
         [1, 5, 8], [2, 3, 5], [3, 4, 5, 7], [5, 7]],
     102, "157260c4dd3c13c993f9418f6cda9d76abff501bb5a25c169f42d70573ce7ba8"),
    (3, [[1, 2, 4, 5, 6, 8], [1, 2, 4, 6, 7, 8], [1, 2, 5, 6, 8], [1, 3, 4, 5, 6, 7], [1, 4, 5, 6],
         [1, 5, 6, 8], [1, 6], [1, 6, 7], [2, 4, 5], [4, 6]],
     688, "6d4c7d8ce690fc7d497f6aa77780c8d4caca59a19b9857fa5f208468bd59b255"),
    (4, [[1, 2, 3, 4, 6, 8], [1, 2, 4, 6, 7], [1, 3, 6], [1, 3, 6, 7], [1, 3, 7], [1, 4, 6],
         [2, 3, 6, 7], [3, 6, 7], [3, 6, 8], [3, 7]],
     124, "db7b24456452311587f5dd083a675db46180fb0f7c31bddad73dede55a095a73"),
    (4, [[1, 2, 4, 6, 7], [1, 2, 4, 6, 7, 8], [1, 3, 4, 6, 7, 8], [1, 4, 6], [1, 4, 7, 8], [2, 4],
         [2, 4, 8], [2, 7], [3, 4, 6, 7], [3, 4, 6, 8]],
     42, "c283b19dc292b46152a80d8657e17bba966d5ec07100e5b83d6a0edb80b27f57"),
    (4, [[1, 2, 3, 4, 6, 8], [1, 4, 6], [1, 4, 6, 7], [1, 4, 7], [2, 3, 7], [2, 4], [2, 4, 7], [2, 7],
         [4, 6], [4, 6, 7]],
     208, "3323158e5a24767c2f9d423558bb9321008950d6ea58ccf56a4dced8e406b6fe"),
    (4, [[1, 3, 5, 6], [1, 3, 5, 6, 7, 8], [1, 3, 6], [1, 3, 6, 7, 8], [1, 3, 8], [2, 3, 4, 6],
         [2, 3, 4, 6, 8], [3, 4, 6], [3, 5, 6], [3, 7]],
     628, "5e276341d96350ce811200fa32195ea243ed783e5c406e49ea9344794754fb64"),
]


@pytest.mark.parametrize("d, sample, count, digest", SEPARATION_SEED_1)
def test_maximal_completions_of_the_seeded_separation_samples_are_pinned(d, sample, count, digest):
    report = extension_search(sample, 8, d, "certify-maximal")
    assert len(report.maximal_completions) == count
    assert hashlib.sha256(json.dumps(report.maximal_completions).encode()).hexdigest() == digest


def test_separation_refusals_name_the_first_failing_pair_in_lex_order():
    # (1, 3) and (1, 4) are 1-separated, and both fail against (2,)
    with pytest.raises(ValueError, match=r"^\(1, 3\) and \(2,\) are not 1-separated$"):
        extension_search([(2,), (1, 4), (1, 3)], 4, 2)
    intervals = [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4), (3, 4), (4,)]
    with pytest.raises(ValueError, match=r"^\(1, 3\) and \(2,\) are not 1-separated$"):
        from_spectra([(2,), (1, 4), (1, 3)] + intervals, crange(4), 2)


def test_lex_table_numbers_every_subset_once_least_set_highest():
    _lex.cache_clear()
    for n in range(1, 9):
        order, bit = _lex(n)
        assert list(order) == sorted(all_subsets(n))
        assert type(order) is type(bit) is tuple
        assert all(type(x) is tuple for x in order) and all(type(b) is int for b in bit)
        assert sorted(bit) == [1 << i for i in range(1 << n)]
        for i, x in enumerate(order):
            code = _encode(x, _positions(n))
            assert bit[code] == 1 << ((1 << n) - 1 - i)
            assert _read(order, bit[code]) == (x,)
        rng = random.Random(n)
        for _ in range(20):
            chosen = rng.sample(order, rng.randrange(len(order) + 1))
            mask = sum(bit[_encode(x, _positions(n))] for x in chosen)
            assert _read(order, mask) == tuple(sorted(chosen))
    assert _lex.cache_info().currsize == 8


def test_split_cache_holds_tuples_and_answers_as_a_fresh_one():
    split = zonocube.systems._split
    split.cache_clear()
    _lex.cache_clear()
    asked = [(6, 3), (6, 4), (7, 4)]
    for n, d in asked:
        for seed in range(4):
            sample = spectrum_sample(n, d, 0.5, random.Random(seed))
            before = [extension_search(sample, n, d, mode) for mode in ("complete", "certify-maximal")]
    assert split.cache_info().currsize == len(asked)
    assert _lex.cache_info().currsize == len({n for n, _ in asked})
    split.cache_clear()
    _lex.cache_clear()
    assert before == [extension_search(sample, n, d, mode) for mode in ("complete", "certify-maximal")]
    peripheral, codes = split(n, d)
    assert all(type(part) is tuple for part in (peripheral, codes, *peripheral))
    assert all(type(code) is int for code in codes)
    assert split.cache_info().currsize == 1

# ---------------------------------------------- separation tables per (n, d)

def adjacency_oracle(codes, compatible):
    """The bitmask adjacency of compatible among the codes, codes[i] as
    vertex i, by one call per pair."""
    adj = [0] * len(codes)
    for i, a in enumerate(codes):
        for j in range(i + 1, len(codes)):
            if compatible(a, codes[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def relation_oracle(n, bound, weak=False):
    """_relation(n, bound, weak) row by row from the pairwise kernels."""
    def related(x, y):
        return _weak(x, y, bound - 2) if weak else _blocks(x, y) <= bound

    return tuple(sum(1 << y for y in range(1 << n) if y != x and related(x, y))
                 for x in range(1 << n))


@pytest.mark.parametrize("n", range(1, 7))
def test_relation_rows_match_the_pairwise_kernels_exhaustively(n):
    for bound in range(1, n + 2):
        assert _relation(n, bound) == relation_oracle(n, bound)
    for k in range(1, n + 1, 2):
        assert _relation(n, k + 2, True) == relation_oracle(n, k + 2, True)


@pytest.mark.parametrize("n", [7, 8])
def test_relation_rows_match_the_pairwise_kernels_at_7_and_8(n):
    for bound in range(2, 6):
        assert _relation(n, bound) == relation_oracle(n, bound)
    for k in (1, 3):
        assert _relation(n, k + 2, True) == relation_oracle(n, k + 2, True)


@pytest.mark.parametrize("n", [9, 10])
def test_relation_rows_match_the_pairwise_kernels_on_seeded_pairs(n):
    rng = random.Random(n)
    tables = {(bound, False): _relation(n, bound) for bound in range(1, n + 2)}
    tables.update({(k + 2, True): _relation(n, k + 2, True) for k in range(1, n + 1, 2)})
    for _ in range(20000):
        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        bound, weak = rng.choice(list(tables))
        want = x != y and (_weak(x, y, bound - 2) if weak else _blocks(x, y) <= bound)
        assert tables[bound, weak][x] >> y & 1 == want


def test_relation_rows_hold_no_self_code_and_the_cache_holds_tuples():
    _relation.cache_clear()
    asked = [(n, bound, weak) for n in (1, 5, 8) for bound in (1, 3) for weak in (False, True)]
    for n, bound, weak in asked:
        rows = _relation(n, bound, weak)
        assert type(rows) is tuple and len(rows) == 1 << n
        assert all(type(row) is int and not row >> x & 1 for x, row in enumerate(rows))
        assert all(rows[y] >> x & 1 for x, row in enumerate(rows) for y in bits_of(row))
    assert _relation.cache_info().currsize == len(asked)
    assert _relation.cache_info().maxsize == 64


def extension_graph_oracle(sample, n, d):
    """The candidates of extension_search on sample and their graph, by
    pairwise _blocks on the position codes."""
    codes = [_encode(colorset(s), _positions(n)) for s in sample]
    cands = [c for c in _split(n, d)[1]
             if c not in codes and all(_blocks(c, s) <= d for s in codes)]
    return adjacency_oracle(cands, lambda a, b: _blocks(a, b) <= d)


@pytest.mark.parametrize("n,k", [(7, 1), (8, 3)])
def test_weak_suite_reads_the_pairwise_graph(monkeypatch, n, k):
    seen = []
    monkeypatch.setattr(zonocube.systems, "_max_clique", lambda adj, *a: seen.append(adj) or 0)
    weak_separation_suite(n, k)
    assert seen == [weak_graph(n, k)[1]]


@pytest.mark.parametrize("n,d", [(8, 5), (7, 3)])
def test_separated_system_count_reads_the_pairwise_graph(monkeypatch, n, d):
    seen = []
    monkeypatch.setattr(zonocube.bruhat, "_count_cliques", lambda adj, *a: seen.append(adj) or 0)
    zonocube.bruhat.separated_system_count(n, d)
    assert seen == [adjacency_oracle(_split(n, d)[1], lambda a, b: _blocks(a, b) <= d)]


@pytest.mark.parametrize("d, sample", [(d, sample) for d, sample, _, _ in SEPARATION_SEED_1])
def test_extension_search_reads_the_pairwise_graph(monkeypatch, d, sample):
    graphs, complements = [], []
    monkeypatch.setattr(zonocube.systems, "_maximal_cliques",
                        lambda adj, full: graphs.append(adj) or [])
    monkeypatch.setattr(zonocube.systems, "_first_clique",
                        lambda non, full, size: complements.append(non))
    extension_search(sample, 8, d, "certify-maximal")
    extension_search(sample, 8, d, "complete")
    adj = extension_graph_oracle(sample, 8, d)
    assert graphs == [adj]
    assert complements == [_complement(adj)]


def test_extension_search_checks_separated_members_on_the_table(monkeypatch):
    def refuse(members, r):
        raise AssertionError("the pairwise check ran on separated members")

    monkeypatch.setattr(zonocube.systems, "_check_separated", refuse)
    triple = [(2, 4, 6), (2, 3, 5), (1, 3, 6)]
    lifted = triple + [s + (7,) for s in triple]
    for sets, n, d in [(triple, 6, 4), (triple, 7, 4), (lifted, 7, 5), ([], 5, 2),
                       (SEPARATION_SEED_1[0][1], 8, 3)]:
        extension_search(sets, n, d)
    with pytest.raises(AssertionError, match="pairwise check ran"):
        extension_search([(1, 3), (2,)], 8, 2)


@pytest.mark.parametrize("search", [
    lambda: extension_search([(2, 4, 6), (2, 3, 5), (1, 3, 6)], 7, 4, "complete"),
    lambda: extension_search([(2, 4, 6), (2, 3, 5), (1, 3, 6)], 7, 4, "certify-maximal"),
    lambda: weak_separation_suite(6, 1),
    lambda: zonocube.bruhat.separated_system_count(6, 3),
    lambda: zonocube.bruhat._triangulations(7, 3, zonocube.bruhat.MAX_STATES),
], ids=["extend-complete", "extend-certify", "weak-sep", "count", "polygons"])
def test_searches_leave_no_cyclic_garbage(search):
    # a recursive search held in its own closure is a reference cycle, which
    # keeps its graph and results alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        search()
        assert gc.collect() == 0
    finally:
        gc.enable()


# --------------------------------------------------------- weak separation

def test_weak_suite_bounds():
    for n in range(1, 7):
        for k in (1, 3):
            report = weak_separation_suite(n, k)
            assert report["max_size"] <= report["bound"]
            assert report["meets_bound"]


def test_weak_witness_triple_maximal_at_55():
    from zonocube.colors import is_weakly_k_separated

    triple = [(2, 5), (1, 3, 5, 6), (1, 2, 4, 6)]
    for a, b in itertools.combinations(triple, 2):
        assert is_r_separated(a, b, 3)
    blockers = [x for x in CLOCK if x not in triple]
    addable = [x for x in blockers
               if all(is_weakly_k_separated(x, t, 3) for t in triple)]
    assert addable == []  # 52 peripheral + 3 = 55, not extendable further


def test_strong_counterexample_extends_weakly():
    from zonocube.colors import is_weakly_k_separated

    triple = [(2, 4, 6), (2, 3, 5), (1, 3, 6)]
    addable = [x for x in CLOCK if x not in triple
               and all(is_weakly_k_separated(x, t, 3) for t in triple)]
    assert addable == [(2, 4, 5), (1, 4, 6)]
    group = triple + addable
    for a, b in itertools.combinations(group, 2):
        assert is_weakly_k_separated(a, b, 3)


@pytest.mark.parametrize("n,k,peripheral,clique", [
    (7, 1, 14, 15), (7, 3, 84, 15), (8, 5, 240, 7), (9, 5, 438, 28)])
def test_weak_separation_maxima(n, k, peripheral, clique):
    report = weak_separation_suite(n, k)
    assert (report["peripheral"], report["non_peripheral_clique"]) == (peripheral, clique)
    assert report["max_size"] == peripheral + clique


def test_weak_suite_rejects_even_k():
    with pytest.raises(ValueError):
        weak_separation_suite(5, 2)


@pytest.mark.parametrize("k", [1.0, 3.0, True])
def test_weak_k_rule_refuses_a_k_that_is_no_int(k):
    with pytest.raises(ValueError, match="odd k >= 1"):
        weak_separation_suite(5, k)
    with pytest.raises(ValueError, match="odd k >= 1"):
        is_weakly_k_separated((1,), (2,), k)


@pytest.mark.parametrize("n", [0, -2, True, 2.0])
def test_weak_suite_rejects_n_that_is_no_int_above_zero(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        weak_separation_suite(n, 1)


def test_weak_suite_scale_guard():
    for n in (11, 24):
        with pytest.raises(ScaleGuardError):
            weak_separation_suite(n, 3)


def weak_graph(n, k):
    codes = _split(n, k + 1)[1]
    return codes, adjacency_oracle(codes, lambda a, b: _weak(a, b, k))


def reversed_set(x, n):
    return tuple(sorted(n + 1 - c for c in x))


def complement_set(x, n):
    return tuple(c for c in crange(n) if c not in x)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reflections_are_weak_separation_automorphisms(k):
    for n in range(1, 9):
        codes, adj = weak_graph(n, k)
        perms = _automorphisms(adj, codes, _reflections(n))
        assert len(perms) == 3
        for p in perms:
            assert sorted(p) == list(range(len(codes)))
            assert is_automorphism(adj, p)
    # the same three maps on the sets themselves, by the public predicate
    for n in range(1, 7):
        subs = all_subsets(n)
        for f in (reversed_set, complement_set, lambda x, n: reversed_set(complement_set(x, n), n)):
            for x, y in itertools.combinations(subs, 2):
                assert is_weakly_k_separated(f(x, n), f(y, n), k) == is_weakly_k_separated(x, y, k)


def test_automorphisms_drops_a_rotation_and_every_map_on_a_flipped_edge():
    def rotate(code):  # i -> i + 1 mod 7 on the colors
        return (code << 1 | code >> 6) & 0b1111111

    codes, adj = weak_graph(7, 1)
    assert _automorphisms(adj, codes, [rotate]) == []
    # on all subsets of [7] the rotation maps the codes onto the codes, and
    # still not the graph onto itself
    every = list(range(1 << 7))
    assert _automorphisms(adjacency_oracle(every, lambda a, b: _weak(a, b, 1)), every, [rotate]) == []
    for n, k in [(7, 1), (7, 3), (8, 5)]:
        codes, adj = weak_graph(n, k)
        perms = _automorphisms(adj, codes, _reflections(n))
        # an edge that no map sends to itself: flipped, it breaks each of them
        j = next(j for j in range(1, len(codes)) if all({p[0], p[j]} != {0, j} for p in perms))
        adj[0] ^= 1 << j
        adj[j] ^= 1
        assert _automorphisms(adj, codes, _reflections(n)) == []


def test_weak_suite_answers_as_the_unpruned_search(monkeypatch):
    pruned = {(n, k): weak_separation_suite(n, k) for n in range(1, 8) for k in (1, 3, 5)}
    monkeypatch.setattr(zonocube.systems, "_automorphisms", lambda *args: [])
    assert pruned == {(n, k): weak_separation_suite(n, k) for n in range(1, 8) for k in (1, 3, 5)}


# ------------------------------------------------------------ prop 19 style

def test_nested_membrane_spectra_union_separated():
    # membranes of Z(4,2) with nested inversion systems have jointly
    # 1-separated spectra
    membranes = {}
    for q in enumerate_cubillages(4, 2):
        for stack in enumerate_stacks(q):
            inv = frozenset(stack)
            if inv not in membranes:
                membranes[inv] = plate_vertices(membrane_of_stack(q, stack))
    items = sorted(membranes.items(), key=lambda kv: sorted(kv[0]))
    for (inv1, sp1), (inv2, sp2) in itertools.combinations(items, 2):
        if inv1 <= inv2 or inv2 <= inv1:
            for a, b in itertools.combinations(sorted(sp1 | sp2), 2):
                assert is_r_separated(a, b, 1)


# ------------------------------------------------ opt-in slow pins

slow = pytest.mark.skipif(os.environ.get("ZONOCUBE_SLOW") != "1",
                          reason="about 6-12 s each; set ZONOCUBE_SLOW=1 to run")


@slow
def test_slow_pin_count_8_4_matches_the_flip_search():
    assert zonocube.bruhat.separated_system_count(8, 4) == 78032
    steps = zonocube.bruhat._masks(8, 4, zonocube.bruhat.MAX_STATES)
    assert len(steps) == 78032
    assert steps == masks_oracle(8, 4)


@slow
@pytest.mark.parametrize("shape", [(8, 3), (8, 4)])
def test_slow_pin_extension_search_matches_the_tuple_oracle_at_8(shape):
    # the oracle lists every clique, so the sparse fractions stay at n <= 7
    for fraction in (0.5, 0.75, 1.0):
        for seed in range(4):
            check_extension_search_against_the_oracle(*shape, fraction, seed)


@slow
def test_slow_pin_weak_8_3():
    assert weak_separation_suite(8, 3)["max_size"] == 163


@slow
def test_slow_pin_weak_8_1():
    assert weak_separation_suite(8, 1)["max_size"] == 37
