import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnum import (
    EdgeColoring,
    FormatError,
    Graph,
    ParameterError,
    Undecided,
    bipartite_color,
    chromatic_coloring,
    chromatic_index_exact,
    chromatic_number,
    classify_chromatic,
    color_critical_value,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    fan_rotation_color,
    find_edge_coloring,
    fournier_class1_test,
    is_chromatic_index_minimal,
    is_overfull,
    path_graph,
    petersen_graph,
    read_coloring,
    regular_even_class1_test,
    regular_parity_class2_test,
    round_robin_rounds,
    star_graph,
    write_coloring,
)
from rdnum.survey import enumerate_connected_graphs

from _oracles import chromatic_index_brute, chromatic_number_brute
from test_graphs import random_graph


class TestEdgeColoring:
    def test_accessors(self):
        g = path_graph(3)
        ec = EdgeColoring(g, (1, 2))
        assert ec.color_of(1, 0) == 1
        assert ec.colors_at(1) == {1, 2}
        assert ec.num_colors == 2 and ec.max_color == 2
        assert ec.is_proper()
        assert not EdgeColoring(g, (1, 1)).is_proper()

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            EdgeColoring(g, (1,))
        with pytest.raises(ParameterError):
            EdgeColoring(g, (1, 0))

    def test_serialization_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        ec = EdgeColoring(g, (1, 2, 1))
        assert read_coloring(write_coloring(ec)) == ec

    def test_read_errors(self):
        with pytest.raises(FormatError, match="line 1"):
            read_coloring("")
        with pytest.raises(FormatError, match="line 2"):
            read_coloring("2 1 1\n0 1\n")
        with pytest.raises(FormatError, match="color"):
            read_coloring("2 1 1\n0 1 2\n")


class TestBipartite:
    def test_small(self):
        ec = bipartite_color(star_graph(6))
        assert ec.is_proper() and ec.max_color == 5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers())
    def test_random_bipartite(self, a, b, seed):
        rng = random.Random(seed)
        edges = [
            (u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.6
        ]
        g = Graph.from_edges(a + b, edges)
        ec = bipartite_color(g)
        assert ec.is_proper()
        assert ec.max_color <= max(g.degrees, default=0)


class TestFanRotation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers())
    def test_proper_within_one_of_max_degree(self, n, seed):
        g = random_graph(random.Random(seed), n, p=0.55)
        ec = fan_rotation_color(g)
        assert ec.is_proper()
        assert ec.max_color <= max(g.degrees) + 1 if g.m else ec.max_color == 0

    def test_petersen(self):
        ec = fan_rotation_color(petersen_graph())
        assert ec.is_proper() and ec.num_colors <= 4


class TestRoundRobin:
    def test_partitions_complete_graph(self):
        rounds = round_robin_rounds(6)
        assert len(rounds) == 5
        seen = set()
        for matching in rounds:
            assert len(matching) == 3
            touched = set()
            for u, v in matching:
                assert u not in touched and v not in touched
                touched.update((u, v))
            seen.update(matching)
        assert len(seen) == 15

    def test_rejects_odd_order(self):
        with pytest.raises(ParameterError):
            round_robin_rounds(5)


class TestExactChromaticIndex:
    def test_against_brute_force(self):
        rng = random.Random(4242)
        count = 0
        for _ in range(120):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, p=rng.choice([0.4, 0.7]))
            if g.m == 0 or g.m > 8:
                continue
            count += 1
            assert chromatic_index_exact(g) == chromatic_index_brute(g)
        assert count > 60

    def test_families(self):
        assert chromatic_index_exact(complete_graph(4)) == 3
        assert chromatic_index_exact(complete_graph(5)) == 5
        assert chromatic_index_exact(cycle_graph(5)) == 3
        assert chromatic_index_exact(cycle_graph(6)) == 2
        assert chromatic_index_exact(petersen_graph()) == 4

    def test_find_edge_coloring(self):
        g = cycle_graph(5)
        assert find_edge_coloring(g, 2) is None
        ec = find_edge_coloring(g, 3)
        assert ec is not None and ec.is_proper() and ec.max_color <= 3

    def test_budget_exhaustion(self):
        with pytest.raises(Undecided):
            chromatic_index_exact(petersen_graph(), 3)


class TestClassPredicates:
    def test_overfull(self):
        assert is_overfull(complete_graph(5))
        assert is_overfull(cycle_graph(5))
        assert not is_overfull(complete_graph(4))
        assert not is_overfull(cycle_graph(6))

    def test_parity(self):
        assert regular_parity_class2_test(complete_graph(5))
        assert regular_parity_class2_test(cycle_graph(7))
        assert not regular_parity_class2_test(complete_graph(6))
        assert not regular_parity_class2_test(path_graph(4))

    def test_fournier(self):
        assert fournier_class1_test(star_graph(4))
        assert fournier_class1_test(path_graph(5))
        assert not fournier_class1_test(cycle_graph(6))  # all components cycles
        assert not fournier_class1_test(complete_graph(4))

    def test_dense_even_regular(self):
        assert regular_even_class1_test(complete_graph(8))
        # the hypotheses cover degrees n-3, n-4, n-5 and 7d >= 6n, nothing else
        assert not regular_even_class1_test(complete_graph(6))  # 5 = n-1
        assert not regular_even_class1_test(complete_graph(7))  # odd order
        assert not regular_even_class1_test(cycle_graph(8))  # 2 = n-6

    def test_dense_even_regular_implies_class_one(self):
        from rdnum import complement

        cube = Graph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        )
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                (0, 3), (1, 4), (2, 5)]
        )
        k33 = complete_multipartite([3, 3])
        samples = [
            cube,  # degree n-5 at the threshold
            complement(cube),  # degree n-4
            complement(cycle_graph(8)),  # degree n-3
            complement(Graph.from_edges(
                8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
            )),  # complement of a 3+5 cycle cover, degree n-3
            complete_graph(8),  # 7d >= 6n
            prism,
            k33,
        ]
        for g in samples:
            assert regular_even_class1_test(g)
            assert chromatic_index_exact(g) == max(g.degrees)
        # degree n-2 falls in the gap between the two hypothesis branches
        pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert not regular_even_class1_test(complement(pm))

    def test_classify_matches_exact_small(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                cv = classify_chromatic(g)
                assert cv.chromatic_index == chromatic_index_exact(g)
                want = 1 if cv.chromatic_index == max(g.degrees) else 2
                assert cv.verdict == want

    def test_classify_without_search(self):
        assert classify_chromatic(petersen_graph(), allow_search=False) is None
        got = classify_chromatic(complete_graph(6), allow_search=False)
        assert got is not None and got.chromatic_index == 5

    def test_classify_handles_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        cv = classify_chromatic(g)
        assert cv.chromatic_index == 3
        assert cv.method == "components"


class TestChromaticColoring:
    @pytest.mark.parametrize(
        "g", [complete_graph(5), complete_graph(6), cycle_graph(5),
              star_graph(5), petersen_graph(),
              complete_multipartite([2, 3])],
    )
    def test_produces_optimal_proper_coloring(self, g):
        cv, ec = chromatic_coloring(g)
        assert ec.is_proper()
        assert ec.max_color <= cv.chromatic_index
        assert cv.chromatic_index == chromatic_index_exact(g)


class TestVertexColoring:
    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, p=0.5)
            assert chromatic_number(g) == chromatic_number_brute(g)

    def test_critical_values(self):
        assert color_critical_value(cycle_graph(5)) == 3
        assert color_critical_value(complete_graph(4)) == 4
        assert color_critical_value(complete_graph(2)) == 2
        assert color_critical_value(path_graph(4)) is None
        assert color_critical_value(cycle_graph(6)) is None


class TestMinimality:
    def test_known_families(self):
        assert is_chromatic_index_minimal(star_graph(4))
        assert is_chromatic_index_minimal(cycle_graph(5))
        assert is_chromatic_index_minimal(cycle_graph(7))
        assert not is_chromatic_index_minimal(cycle_graph(6))
        assert not is_chromatic_index_minimal(path_graph(5))
        assert not is_chromatic_index_minimal(complete_graph(4))
        # fewer than two edges never qualifies
        assert not is_chromatic_index_minimal(complete_graph(2))
        assert is_chromatic_index_minimal(star_graph(3))

    def test_petersen_is_not_minimal(self):
        assert not is_chromatic_index_minimal(petersen_graph())
