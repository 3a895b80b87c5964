import itertools
import random
from math import comb

import pytest
from facet_oracles import _expand, _membrane
from mask_oracles import tunnel_covers_oracle

from zonocube.bruhat import enumerate_cubillages
from zonocube.colors import Colors, add, minus, packet
from zonocube.cubillage import (
    Cube,
    Cubillage,
    CubillageError,
    Facet,
    antistandard,
    boundary_plates,
    contract,
    cover_relations,
    expand,
    facet_sides,
    partition,
    reduce,
    standard,
    validate,
)
from zonocube.masks import _mask_of
from zonocube.order import (
    AdmissibleOrder,
    _chain_covers,
    apply_flip,
    avalanche,
    canonical_extension,
    enumerate_stacks,
    find_flips,
    garland,
    membrane_as_cubillage,
    membrane_of_stack,
    natural_order,
    plate_vertices,
    side_of_membrane,
    stack_of_membrane,
    standardize,
)
from zonocube.systems import from_consistent, inversions, order_of


def crange(n):
    return tuple(range(1, n + 1))


# ------------------------------------------------------------ natural order

def test_standard_3_2_is_a_chain():
    no = natural_order(standard((1, 2, 3), 2))
    assert no.leq((1, 2), (1, 3))
    assert no.leq((1, 3), (2, 3))
    assert no.leq((1, 2), (2, 3))
    assert not no.leq((2, 3), (1, 2))
    assert no.topological() == [(1, 2), (1, 3), (2, 3)]


def test_capsid_orders_are_lex_and_antilex_chains():
    for d in range(1, 6):
        n = d + 1
        lex = list(packet(crange(n), d))
        no_std = natural_order(standard(crange(n), d))
        assert no_std.topological() == lex
        no_anti = natural_order(antistandard(crange(n), d))
        assert no_anti.topological() == lex[::-1]


def test_quoted_z65_chain():
    chain = natural_order(standard(crange(6), 5)).topological()
    assert chain == [(1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6),
                     (1, 2, 4, 5, 6), (1, 3, 4, 5, 6), (2, 3, 4, 5, 6)]


def test_packet_restrictions_are_chains():
    for n, d in ((4, 2), (5, 3)):
        for q in enumerate_cubillages(n, d):
            no = natural_order(q)
            for parent in itertools.combinations(crange(n), d + 1):
                chain = packet(parent, d)
                forward = all(no.leq(a, b) for a, b in zip(chain, chain[1:]))
                backward = all(no.leq(b, a) for a, b in zip(chain, chain[1:]))
                assert forward != backward or len(chain) == 1


def test_order_is_closure_of_packet_chains():
    for q in enumerate_cubillages(4, 2):
        no = natural_order(q)
        pair_in_packet = set()
        for parent in itertools.combinations(crange(4), 3):
            chain = packet(parent, 2)
            for a, b in itertools.combinations(chain, 2):
                if no.leq(a, b):
                    pair_in_packet.add((a, b))
                elif no.leq(b, a):
                    pair_in_packet.add((b, a))
        # transitive closure of the packet pairs
        closure = set(pair_in_packet)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, dd in list(closure):
                    if b == c and (a, dd) not in closure and a != dd:
                        closure.add((a, dd))
                        changed = True
        derived = {(a, b) for a in q.types() for b in q.types()
                   if a != b and no.leq(a, b)}
        assert closure == derived


def test_cycle_is_diagnosed():
    # two swapped roots make the square faces stare at each other
    q = Cubillage((1, 2, 3), 2, [((3,), (1, 2)), ((2,), (1, 3)), ((1,), (2, 3))])
    assert validate(q) is not None


def test_abstract_cube_relation_is_acyclic():
    # all cubes of all cubillages at once, per color count up to 6
    for n in range(1, 7):
        for d in range(1, n + 1):
            cubes = []
            for typ in itertools.combinations(crange(n), d):
                rest = [c for c in crange(n) if c not in typ]
                for k in range(len(rest) + 1):
                    for root in itertools.combinations(rest, k):
                        cubes.append(Cube(root, typ))
            visible = {}
            invisible = {}
            for cube in cubes:
                for vis, invis in facet_sides(cube).values():
                    visible.setdefault(vis, []).append(cube)
                    invisible.setdefault(invis, []).append(cube)
            succ = {cube: [] for cube in cubes}
            indeg = {cube: 0 for cube in cubes}
            for facet, belows in invisible.items():
                for below in belows:
                    for above in visible.get(facet, ()):
                        succ[below].append(above)
                        indeg[above] += 1
            queue = [c for c, k in indeg.items() if k == 0]
            done = 0
            while queue:
                c = queue.pop()
                done += 1
                for s in succ[c]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        queue.append(s)
            assert done == len(cubes), f"cycle among abstract cubes of ({n},{d})"


def test_reversal_inside_top_partition():
    for n, d in ((4, 2), (5, 3), (6, 4)):
        for q in enumerate_cubillages(n, d):
            part_types = {c.type for c in partition(q, n)}
            below_order = natural_order(contract(q, n))
            for below, above in cover_relations(q):
                if below in part_types and above in part_types:
                    b = tuple(x for x in below if x != n)
                    a = tuple(x for x in above if x != n)
                    assert below_order.leq(a, b)


def test_reduction_order_is_weaker():
    for q in enumerate_cubillages(4, 2):
        no = natural_order(q)
        for i in crange(4):
            red = reduce(q, i).cubillage
            no_red = natural_order(red)
            for a in red.types():
                for b in red.types():
                    if no_red.leq(a, b):
                        assert no.leq(a, b)


def test_dot_export():
    dot = natural_order(standard((1, 2, 3), 2)).to_dot()
    assert dot.splitlines()[0] == "digraph natural_order {"
    assert '"12" -> "13";' in dot


# -------------------------------------------------------- stacks, membranes

def test_extreme_membranes_are_boundaries():
    q = standard(crange(4), 2)
    assert membrane_of_stack(q, []) == boundary_plates(crange(4), 2, "front")
    assert membrane_of_stack(q, q.types()) == boundary_plates(crange(4), 2, "back")


def test_membrane_of_stack_example():
    q = standard((1, 2, 3), 2)
    plates = membrane_of_stack(q, [(1, 2)])
    assert plates == frozenset({((), (2,)), ((2,), (1,)), ((1, 2), (3,))})
    proj = membrane_as_cubillage(q, plates)
    assert validate(proj) is None


def test_membranes_project_to_valid_cubillages():
    for q in enumerate_cubillages(4, 2):
        for stack in enumerate_stacks(q):
            proj = membrane_as_cubillage(q, membrane_of_stack(q, stack))
            assert validate(proj) is None


def test_stack_membrane_roundtrip():
    q = standard(crange(4), 2)
    for stack in enumerate_stacks(q):
        assert stack_of_membrane(q, membrane_of_stack(q, stack)) == stack


def test_stack_of_membrane_rejects_what_is_no_membrane():
    q = apply_flip(standard(crange(5), 2), (1, 2, 3))
    # the root 5 of the plate of type 4 puts (4, 5) alone in the stack
    with pytest.raises(CubillageError, match="not an order ideal"):
        stack_of_membrane(q, {Facet((5,), (4,))})
    stacks = enumerate_stacks(q)
    plates = membrane_of_stack(q, stacks[len(stacks) // 2])
    with pytest.raises(CubillageError, match="not a membrane"):
        stack_of_membrane(q, plates | {Facet((), (5,))})


def test_stack_rejects_non_ideal():
    q = standard((1, 2, 3), 2)
    with pytest.raises(ValueError):
        membrane_of_stack(q, [(2, 3)])


def test_side_of_membrane_full_stack():
    q = standard(crange(4), 2)
    verts = plate_vertices(membrane_of_stack(q, q.types()))
    for t in q.types():
        assert side_of_membrane(t, verts) == "before"


def test_side_of_membrane_capsid_witness():
    for d in (2, 3, 4):
        back = plate_vertices(boundary_plates(crange(d), d, "back"))
        assert side_of_membrane(crange(d), back) == "before"
        head = tuple(sorted(range(d, 0, -2)))
        assert head in back
        front = plate_vertices(boundary_plates(crange(d), d, "front"))
        assert side_of_membrane(crange(d), front) == "after"


def test_side_of_membrane_rejects_garbage():
    with pytest.raises(CubillageError):
        side_of_membrane((1, 2), {(1,), (2,)})  # neither pattern
    with pytest.raises(CubillageError):
        side_of_membrane((1, 2), {(2,), (1,), ()})  # both patterns


def test_ideal_counts():
    assert len(enumerate_stacks(standard((1, 2, 3), 2))) == 4
    for d in (2, 3, 4):
        q = standard(crange(d + 1), d)
        assert len(enumerate_stacks(q)) == d + 2


def test_ideal_lattice_closed():
    for q in enumerate_cubillages(4, 2):
        ideals = set(enumerate_stacks(q))
        for a, b in itertools.combinations(ideals, 2):
            assert (a | b) in ideals
            assert (a & b) in ideals


# ----------------------------------------------------------------- flips

def test_find_flips_standard_3_2():
    assert find_flips(standard((1, 2, 3), 2)) == (((1, 2, 3), "raising"),)


def test_standard_has_no_lowering_antistandard_no_raising():
    for d in range(1, 5):
        for n in range(d + 1, 7):
            st_dirs = {dirn for _, dirn in find_flips(standard(crange(n), d))}
            an_dirs = {dirn for _, dirn in find_flips(antistandard(crange(n), d))}
            assert "lowering" not in st_dirs
            assert "raising" not in an_dirs


def test_every_non_standard_has_a_lowering_flip():
    for n, d in ((4, 2), (5, 3), (6, 4)):
        st = standard(crange(n), d)
        for q in enumerate_cubillages(n, d):
            if q != st:
                assert any(dirn == "lowering" for _, dirn in find_flips(q))


def test_apply_flip_examples():
    q = standard((1, 2, 3), 2)
    flipped = apply_flip(q, (1, 2, 3))
    assert flipped == antistandard((1, 2, 3), 2)
    assert apply_flip(flipped, (1, 2, 3)) == q


def test_flip_changes_inversions_by_one():
    for q in enumerate_cubillages(4, 2):
        inv = inversions(q)
        for parent, direction in find_flips(q):
            after = inversions(apply_flip(q, parent))
            if direction == "raising":
                assert after == inv | {parent}
            else:
                assert after == inv - {parent}


def test_apply_flip_rejects_unflippable():
    q = standard(crange(4), 2)
    with pytest.raises(ValueError):
        apply_flip(q, (1, 2, 4))


# ------------------------------------------------- avalanches, extensions

def test_avalanche_fixes_standard():
    # the last three are single cubes, Z(d,d), with no parent for an avalanche to move
    for q in (standard(crange(4), 2), standard(crange(5), 3), standard((1, 2), 2),
              standard((4,), 1), standard(crange(3), 3)):
        assert avalanche(q) == q
        assert validate(avalanche(q)) is None


def test_avalanche_validity_on_all_z42():
    for q in enumerate_cubillages(4, 2):
        assert validate(avalanche(q)) is None


def test_standardize_terminates_at_standard():
    seq = standardize(antistandard(crange(4), 2))
    assert seq[0] == antistandard(crange(4), 2)
    assert seq[-1] == standard(crange(4), 2)
    assert all(validate(q) is None for q in seq)
    assert seq[1] == avalanche(seq[0])


def test_standardize_all_z42():
    for q in enumerate_cubillages(4, 2):
        seq = standardize(q)
        assert seq[-1] == standard(crange(4), 2)
        assert all(validate(s) is None for s in seq)


def test_canonical_extension_of_standard():
    for n, d in ((4, 2), (5, 2)):
        q = standard(crange(n), d)
        ext = canonical_extension(q)
        assert validate(ext) is None
        # before region is empty: the front boundary projects back to q
        front = membrane_of_stack(ext, [])
        assert membrane_as_cubillage(ext, front) == q


def test_canonical_extension_contains_membrane():
    for q in enumerate_cubillages(4, 2):
        ext = canonical_extension(q)
        assert validate(ext) is None
        stack = frozenset(inversions(q))
        plates = membrane_of_stack(ext, stack)
        assert membrane_as_cubillage(ext, plates) == q
        assert stack_of_membrane(ext, plates) == stack


def test_canonical_extension_no_lowering_before_membrane():
    for q in enumerate_cubillages(4, 2):
        ext = canonical_extension(q)
        stack = frozenset(inversions(q))
        for parent, direction in find_flips(ext):
            if direction == "lowering":
                capsid_types = set(itertools.combinations(parent, ext.d))
                assert not capsid_types <= stack


# ------------------------------ oracle: reduce/expand and the flip walk

def avalanche_oracle(q: Cubillage) -> Cubillage:
    """Move the whole top-color layer flush to the back boundary in one step."""
    m = q.colors[-1]
    inner = reduce(q, m).cubillage
    return _expand(inner, frozenset(inner.types()), m)


def standardize_oracle(q: Cubillage) -> tuple[Cubillage, ...]:
    """The canonical avalanche sequence from q down to the standard cubillage.

    Each step re-expands the reduction's standardization at the back, so the
    sequence is deterministic; the first entry is q itself and the last is
    standard(colors, d).
    """
    if q.n == q.d:
        return (q,)
    m = q.colors[-1]
    inner_seq = standardize_oracle(reduce(q, m).cubillage)
    return (q,) + tuple(_expand(s, frozenset(s.types()), m) for s in inner_seq)


def _canonical_flip(r: Cubillage, direction: str) -> Colors | None:
    """Parent of the next flip in the canonical (anti)standardization walk.

    Decomposes the avalanche sequence into single flips: take the top color m
    whose layer is not yet flush, and inside it the precedence-minimal cube
    strictly behind the layer (lowering) or the maximal one strictly before
    it (raising).  None once the walk has terminated.
    """
    if r.n == r.d:
        return None
    m = r.colors[-1]
    behind = direction == "lowering"
    movable = [t for t in r.types()
               if m not in t and (m in r._root_by_type[t]) == behind]
    if not movable:
        return _canonical_flip(reduce(r, m).cubillage, direction)
    topo = natural_order(r).topological()
    pool = set(movable)
    ordered = [t for t in topo if t in pool]
    pick = ordered[0] if behind else ordered[-1]
    return add(pick, m)


def canonical_extension_oracle(qp: Cubillage) -> Cubillage:
    """Lift a cubillage one dimension up so that it becomes a membrane.

    The region before the membrane is filled by walking qp down to the
    standard cubillage along the canonical standardization flips, recording
    one cube per flip at the flip's capsid position; the after region
    symmetrically walks up to the antistandard cubillage.  The stack of the
    membrane in the result is exactly the set of recorded before-cubes, and
    no lowering flip of the result stays inside that stack.
    """
    roots = {}
    bound = comb(len(qp.colors), qp.d + 1)
    for direction in ("lowering", "raising"):
        cur = qp
        # each flip toggles one (d+1)-subset one way, so a walk that has not
        # ended after C(n,d+1) flips has met a wrong apply_flip
        for _ in range(bound + 1):
            parent = _canonical_flip(cur, direction)
            if parent is None:
                break
            # the capsid's cubes share their root outside the parent
            roots[parent] = minus(cur._root_by_type[parent[1:]], parent)
            cur = apply_flip(cur, parent)
        else:
            raise AssertionError(f"the {direction} walk passed {bound} flips")
    return Cubillage._adopt(qp.colors, qp.d + 1, roots)


ORACLE_SPACES = [(3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4),
                 (7, 4), (3, 3), (4, 4)]

# (colors, d, number of walks); fewer walks where the oracle walk is slow
ORACLE_WALKS = [(crange(8), 3, 6), (crange(9), 4, 3), (crange(10), 5, 2),
                ((2, 4, 5, 7, 9, 11), 2, 6), ((2, 4, 5, 7, 9, 11), 3, 6), ((3, 5, 8, 9), 1, 6)]


def seeded_walk_ends(colors, d, walks, steps=30):
    """The ends of seeded walks of random flips from the standard cubillage."""
    rng = random.Random(len(colors) * 10 + d)
    for _ in range(walks):
        q = standard(colors, d)
        for _ in range(steps):
            q = apply_flip(q, rng.choice(find_flips(q))[0])
        yield q


def oracle_stacks(q, cap=8):
    """Every stack of q up to five colors; beyond, up to cap + 1 prefixes,
    evenly spaced, of each of two linear extensions of its natural order."""
    if q.n <= 5:
        return enumerate_stacks(q)
    order = natural_order(q)
    step = max(1, len(q) // cap)
    return {frozenset(line[:k]) for line in (order.topological(), order.linear_extension())
            for k in range(0, len(q) + 1, step)}


def assert_matches_oracles(q, stacks):
    assert natural_order(q).relations == cover_relations(q)
    # the oracle avalanche of Z(d,d) has no cubes; nothing there can move
    assert avalanche(q) == (avalanche_oracle(q) if q.n > q.d else q)
    assert standardize(q) == standardize_oracle(q)
    if q.n > q.d:
        assert canonical_extension(q) == canonical_extension_oracle(q)
    else:  # the oracle walk gives a Z(d,d+1) with no cubes
        with pytest.raises(ValueError):
            canonical_extension(q)
    top = q.colors[-1] + 1
    for stack in stacks:
        assert membrane_of_stack(q, stack) == _membrane(q, stack)
        assert expand(q, stack, top) == _expand(q, stack, top)


@pytest.mark.parametrize("n,d", ORACLE_SPACES, ids=[f"Z{n}_{d}" for n, d in ORACLE_SPACES])
def test_mask_functions_match_oracles_on_all_cubillages(n, d):
    for q in enumerate_cubillages(n, d):
        # stacks beyond five colors are sampled on the seeded walk ends
        assert_matches_oracles(q, oracle_stacks(q) if n <= 5 else ())


@pytest.mark.parametrize("colors,d,walks", ORACLE_WALKS,
                         ids=["Z8_3", "Z9_4", "Z10_5", "C6_2", "C6_3", "C4_1"])
def test_mask_functions_match_oracles_on_seeded_walks(colors, d, walks):
    for q in seeded_walk_ends(colors, d, walks):
        assert_matches_oracles(q, oracle_stacks(q))


def assert_chains_match_oracle(q):
    # the chains read off the roots are the chains the mask orders pair by pair
    types = q.types()
    oracle = tunnel_covers_oracle(q.colors, q.d, _mask_of(q))
    assert [(types[a], types[b]) for a, b in _chain_covers(q)] == oracle
    order, expected = natural_order(q), AdmissibleOrder(q.colors, q.d, oracle)
    assert order.relations == expected.relations
    assert order.topological() == expected.topological()
    assert [order.leq(a, b) for a in types for b in types] == \
        [expected.leq(a, b) for a in types for b in types]


@pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (7, 4)])
def test_tunnel_chains_match_the_mask_oracle_on_all_cubillages(n, d):
    for q in enumerate_cubillages(n, d):
        assert_chains_match_oracle(q)


@pytest.mark.parametrize("colors,d,walks", [(crange(8), 3, 6), (crange(9), 4, 3),
                                             (crange(10), 5, 2), ((2, 4, 5, 7, 9, 11), 3, 6)],
                         ids=["Z8_3", "Z9_4", "Z10_5", "C6_3"])
def test_tunnel_chains_match_the_mask_oracle_on_seeded_walks(colors, d, walks):
    for q in seeded_walk_ends(colors, d, walks):
        assert_chains_match_oracle(q)


def test_canonical_extension_is_the_ambient_of_from_consistent():
    for n, d in ORACLE_SPACES:
        if d < n <= 6:  # Z(n,d+1) needs n >= d+1
            for q in enumerate_cubillages(n, d):
                assert from_consistent(inversions(q), n, d + 1).ambient == canonical_extension(q)


@pytest.mark.parametrize("q", [
    Cubillage((1, 2), 1, [((), (1,))]),
    # standard(6,3) with color 6 toggled in root(1,2,3), which is empty
    Cubillage(crange(6), 3, [((6,) if c.type == (1, 2, 3) else c.root, c.type)
                             for c in standard(crange(6), 3).cubes]),
], ids=["Z2_1-missing-type", "Z6_3-root-toggled"])
@pytest.mark.parametrize("f", [
    avalanche, standardize, canonical_extension, natural_order, order_of, enumerate_stacks,
    pytest.param(lambda q: membrane_of_stack(q, []), id="membrane_of_stack"),
    pytest.param(lambda q: stack_of_membrane(q, boundary_plates(q.colors, q.d, "front")),
                 id="stack_of_membrane"),
    pytest.param(lambda q: expand(q, [], q.colors[-1] + 1), id="expand"),
])
def test_mask_functions_refuse_invalid_tilings(q, f):
    assert validate(q) is not None
    with pytest.raises(CubillageError):
        f(q)


# ----------------------------------------------------------------- garland

def test_garland_tables_z43():
    gs = garland(standard(crange(4), 3))
    inner_s = {k: v for k, v in gs.mapping.items() if k != v}
    assert inner_s == {(2,): (1, 2, 4), (3,): (1, 4), (2, 3): (1, 3, 4)}
    ga = garland(antistandard(crange(4), 3))
    inner_a = {k: v for k, v in ga.mapping.items() if k != v}
    assert inner_a == {(2,): (1, 4), (3,): (1, 3, 4), (2, 3): (1, 2, 4)}


def test_garland_conjugation_law():
    from zonocube.cubillage import central_symmetry

    full = set(crange(4))

    def alpha(x):
        return tuple(sorted(full - set(x)))

    for q in enumerate_cubillages(4, 3):
        g = garland(q)
        g_sym = garland(central_symmetry(q)).mapping
        for v, w in g.mapping.items():
            # conjugation: mapping of the symmetric cubillage is a^-1 g a
            assert g_sym[alpha(w)] == alpha(v)


def test_garland_paths_cross_membranes_once():
    for q in enumerate_cubillages(4, 2):
        g = garland(q)
        tail_to_head = {tail: head for tail, head in g.chords.values()}
        paths = []
        for v, w in g.mapping.items():
            if v == w:
                continue
            path = [v]
            cur = v
            while cur != w:
                cur = tail_to_head[cur]
                path.append(cur)
            paths.append(path)
        for stack in enumerate_stacks(q):
            verts = plate_vertices(membrane_of_stack(q, stack))
            for path in paths:
                assert sum(1 for v in path if v in verts) == 1
