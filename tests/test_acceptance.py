"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or rational arithmetic throughout); there are
no tolerances to tune.  Run with -s to see the per-criterion lines.
"""

import itertools
from contextlib import contextmanager
from math import comb

from triangulation_oracles import polygon_triangulations

from zonocube.bruhat import (
    bruhat_poset,
    enumerate_cubillages,
    sec,
    sec_surjectivity_experiment,
    separated_system_count,
    triangulation_shape_ok,
)
from zonocube.colors import (
    is_r_separated,
    is_weakly_k_separated,
    packet,
    parity,
    subsets,
)
from zonocube.cubillage import (
    Cube,
    antistandard,
    boundary_plates,
    contract,
    cover_relations,
    facet_sides,
    partition,
    reduce,
    snakes,
    standard,
    tunnel,
    validate,
)
from zonocube.geom import Realization, det_sign
from zonocube.order import (
    canonical_extension,
    enumerate_stacks,
    find_flips,
    garland,
    membrane_as_cubillage,
    membrane_of_stack,
    natural_order,
    plate_vertices,
    stack_of_membrane,
)
from zonocube.systems import (
    extension_search,
    from_consistent,
    from_order,
    from_spectra,
    inversions,
    order_of,
    weak_separation_suite,
)

CLOCK = [(2, 4), (2, 4, 5), (2, 5), (2, 3, 5), (3, 5), (1, 3, 5), (1, 3, 5, 6),
         (1, 3, 6), (1, 3, 4, 6), (1, 4, 6), (1, 2, 4, 6), (2, 4, 6)]


def crange(n):
    return tuple(range(1, n + 1))


def binom_leq(n, d):
    return sum(comb(n, k) for k in range(d + 1))


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [FAIL] {name}")
        raise
    print(f"criterion {num:2d} [PASS] {name}")


def test_criterion_01_counting_identities():
    with criterion(1, "counting identities for n <= 8, d <= 4"):
        for d in range(1, 5):
            for n in range(d, 9):
                cs = crange(n)
                front = boundary_plates(cs, d, "front")
                back = boundary_plates(cs, d, "back")
                assert len(front) + len(back) == 2 * comb(n, d - 1)
                assert len(plate_vertices(front) | plate_vertices(back)) == \
                    2 * binom_leq(n - 1, d - 1)
                for q in (standard(cs, d), antistandard(cs, d)):
                    assert len(q) == comb(n, d)
                    assert len(q.vertices()) == binom_leq(n, d)
                    for i in cs:
                        assert len(partition(q, i)) == comb(n - 1, d - 1)
                    for dd in subsets(cs, d - 1):
                        assert len(tunnel(q, dd)) == n - d + 1


def test_criterion_02_enumeration_counts():
    with criterion(2, "enumeration counts and the independent oracle"):
        for d in range(1, 6):
            assert len(enumerate_cubillages(d + 1, d)) == 2
        assert len(enumerate_cubillages(4, 2)) == 8
        assert len(enumerate_cubillages(5, 3)) == 10
        assert len(enumerate_cubillages(6, 4)) == 12
        for n, d in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4)):
            qs = enumerate_cubillages(n, d)
            assert all(validate(q) is None for q in qs)
            assert len(qs) == separated_system_count(n, d)


def test_criterion_03_poset_structure():
    with criterion(3, "graded posets, unique extremes, B(6,2) not a lattice"):
        for n, d in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4)):
            poset = bruhat_poset(n, d)
            assert poset.is_graded()
            assert poset.minimal_elements() == (0,)
            assert poset.maximal_elements() == (len(poset) - 1,)
            assert poset.elements[0] == standard(crange(n), d)
            assert poset.elements[-1] == antistandard(crange(n), d)
            # covers add exactly the flipped parent, so Inv is monotone
            invs = [inversions(q) for q in poset.elements]
            for i, j in poset.covers:
                extra = invs[j] - invs[i]
                assert len(extra) == 1 and invs[i] < invs[j]
        small = bruhat_poset(4, 2)
        for i in range(len(small)):
            for j in range(len(small)):
                if small.leq(i, j):
                    assert inversions(small.elements[i]) <= inversions(small.elements[j])
        assert bruhat_poset(6, 2).join_failures(1) != []


def test_criterion_04_purity_counterexample():
    with criterion(4, "Z(6,4) maximal at 55 < 57; non-purity lifts to (7,4), (7,5)"):
        triple = [(2, 4, 6), (2, 3, 5), (1, 3, 6)]
        report = extension_search(triple, 6, 4, "certify-maximal")
        assert report.bound == 57
        assert report.maximal_sizes == (55,)
        assert not report.completable
        assert len(report.maximal_completions[0]) == 55

        lifted74 = extension_search(triple, 7, 4, "certify-maximal")
        assert not lifted74.completable
        assert max(lifted74.maximal_sizes) < lifted74.bound == 99

        lifted75_sets = triple + [tuple(sorted(t + (7,))) for t in triple]
        lifted75 = extension_search(lifted75_sets, 7, 5, "certify-maximal")
        assert not lifted75.completable
        assert max(lifted75.maximal_sizes) < lifted75.bound == 120


def test_criterion_05_weak_separation():
    with criterion(5, "weak separation bound, witnesses, weak extension"):
        for n in range(1, 7):
            for k in (1, 3):
                report = weak_separation_suite(n, k)
                assert report["max_size"] <= report["bound"]
                assert report["meets_bound"]
        triple = [(2, 5), (1, 3, 5, 6), (1, 2, 4, 6)]
        for a, b in itertools.combinations(triple, 2):
            assert is_r_separated(a, b, 3)
        others = [x for x in CLOCK if x not in triple]
        assert not any(all(is_weakly_k_separated(x, t, 3) for t in triple)
                       for x in others)
        strong = [(2, 4, 6), (2, 3, 5), (1, 3, 6)]
        addable = [x for x in CLOCK if x not in strong
                   and all(is_weakly_k_separated(x, t, 3) for t in strong)]
        assert addable == [(2, 4, 5), (1, 4, 6)]


def test_criterion_06_reconstruction_roundtrips():
    with criterion(6, "from_spectra, from_order, from_consistent round trips"):
        for n, d in ((4, 2), (5, 2), (5, 3)):
            for q in enumerate_cubillages(n, d):
                assert from_spectra(q.vertices(), crange(n), d) == q
                assert from_order(order_of(q)) == q
                inv = inversions(q)
                witness = from_consistent(inv, n, d + 1)
                assert witness.stack == inv
                assert inversions(witness.projected) == inv
                assert witness.projected == q


def test_criterion_07_sign_rule_oracle():
    with criterion(7, "parity rule equals exact determinant signs, n <= 8, d <= 5"):
        for d in range(1, 6):
            for n in range(d, 9):
                plain = Realization(crange(n), d)
                stretched = Realization(crange(n), d,
                                        t_params=[i * i + 1 for i in range(n)])
                for j in subsets(crange(n), d - 1):
                    for i in crange(n):
                        if i in j:
                            continue
                        want = 1 if parity(i, j) == "even" else -1
                        assert det_sign(j, i, plain) == want
                        assert det_sign(j, i, stretched) == want


def test_criterion_08_order_laws():
    with criterion(8, "acyclicity, partition reversal, order restriction, capsid chains"):
        # acyclicity of the full abstract cube relation for n <= 6
        for n in range(1, 7):
            for d in range(1, n + 1):
                cubes = []
                for typ in subsets(crange(n), d):
                    rest = [c for c in crange(n) if c not in typ]
                    for k in range(len(rest) + 1):
                        for root in itertools.combinations(rest, k):
                            cubes.append(Cube(root, tuple(typ)))
                visible, invisible = {}, {}
                for cube in cubes:
                    for vis, invis in facet_sides(cube).values():
                        visible.setdefault(vis, []).append(cube)
                        invisible.setdefault(invis, []).append(cube)
                succ = {c: [] for c in cubes}
                indeg = {c: 0 for c in cubes}
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
                assert done == len(cubes)
        # reversal inside every top-color layer; restriction of the order
        for n, d in ((4, 2), (5, 3), (6, 4)):
            for q in enumerate_cubillages(n, d):
                assert validate(q) is None
                part_types = {c.type for c in partition(q, n)}
                below_order = natural_order(contract(q, n))
                for below, above in cover_relations(q):
                    if below in part_types and above in part_types:
                        b = tuple(x for x in below if x != n)
                        a = tuple(x for x in above if x != n)
                        assert below_order.leq(a, b)
        for q in enumerate_cubillages(4, 2):
            no = natural_order(q)
            for i in crange(4):
                red = reduce(q, i).cubillage
                no_red = natural_order(red)
                for a in red.types():
                    for b in red.types():
                        if no_red.leq(a, b):
                            assert no.leq(a, b)
        # packet restrictions are lex or antilex chains
        for n, d in ((4, 2), (5, 3)):
            for q in enumerate_cubillages(n, d):
                no = natural_order(q)
                inv = inversions(q)
                for parent in subsets(crange(n), d + 1):
                    chain = packet(parent, d)
                    if tuple(parent) in inv:
                        chain = chain[::-1]
                    assert all(no.leq(a, b) for a, b in zip(chain, chain[1:]))
        assert natural_order(standard(crange(6), 5)).topological() == [
            (1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6),
            (1, 2, 4, 5, 6), (1, 3, 4, 5, 6), (2, 3, 4, 5, 6)]


def test_criterion_09_garlands():
    with criterion(9, "garland tables for Z(4,3) and the conjugation law"):
        from zonocube.cubillage import central_symmetry

        inner_s = {k: v for k, v in garland(standard(crange(4), 3)).mapping.items()
                   if k != v}
        assert inner_s == {(2,): (1, 2, 4), (3,): (1, 4), (2, 3): (1, 3, 4)}
        inner_a = {k: v for k, v in garland(antistandard(crange(4), 3)).mapping.items()
                   if k != v}
        assert inner_a == {(2,): (1, 4), (3,): (1, 3, 4), (2, 3): (1, 2, 4)}
        full = set(crange(4))

        def alpha(x):
            return tuple(sorted(full - set(x)))

        for q in enumerate_cubillages(4, 3):
            g = garland(q).mapping
            g_sym = garland(central_symmetry(q)).mapping
            for v, w in g.items():
                assert g_sym[alpha(w)] == alpha(v)


def test_criterion_10_triangulations():
    with criterion(10, "slice volumes exact; image covers all d <= 3 triangulations"):
        for n, d in ((5, 3), (6, 3)):
            for q in enumerate_cubillages(n, d):
                tri = sec(q)  # raises on any volume mismatch
                assert triangulation_shape_ok(tri)
        r53 = sec_surjectivity_experiment(5, 3)
        assert r53["surjective"] and r53["total"] == 5 == len(polygon_triangulations(5))
        r63 = sec_surjectivity_experiment(6, 3)
        assert r63["surjective"] and r63["total"] == 14 == len(polygon_triangulations(6))


def test_criterion_11_property_suites():
    with criterion(11, "membrane separation, snakes, lattice, canonical extension"):
        # nested inversion systems give jointly separated membrane spectra
        membranes = {}
        for q in enumerate_cubillages(4, 2):
            for stack in enumerate_stacks(q):
                inv = frozenset(stack)
                membranes.setdefault(inv, plate_vertices(membrane_of_stack(q, stack)))
        for (i1, sp1), (i2, sp2) in itertools.combinations(sorted(
                membranes.items(), key=lambda kv: sorted(kv[0])), 2):
            if i1 <= i2 or i2 <= i1:
                for a, b in itertools.combinations(sorted(sp1 | sp2), 2):
                    assert is_r_separated(a, b, 1)
        # snakes use every color exactly once
        for n, d in ((4, 2), (5, 2), (5, 3)):
            for q in enumerate_cubillages(n, d):
                for path in snakes(q):
                    assert sorted(path) == list(crange(n))
        # the stack lattice of Z(4,2) is distributive (a sublattice of sets)
        for q in enumerate_cubillages(4, 2):
            ideals = set(enumerate_stacks(q))
            for a, b in itertools.combinations(ideals, 2):
                assert (a | b) in ideals and (a & b) in ideals
        # canonical extension holds its membrane, no lowering flip before it
        for n, d in ((4, 2), (5, 2)):
            for q in enumerate_cubillages(n, d):
                ext = canonical_extension(q)
                assert validate(ext) is None
                stack = frozenset(inversions(q))
                plates = membrane_of_stack(ext, stack)
                assert membrane_as_cubillage(ext, plates) == q
                assert stack_of_membrane(ext, plates) == stack
                for parent, direction in find_flips(ext):
                    if direction == "lowering":
                        assert not set(subsets(parent, ext.d)) <= stack
