import networkx as nx
import numpy as np
import pytest

from specdist import (
    Family,
    FamilySpec,
    Graph,
    adjacency_matrix,
    build_cycle,
    build_path,
    build_w,
    build_w_coalesced,
    build_z,
    coalesce,
    from_edge_list_text,
    to_edge_list_text,
)
from specdist.errors import OrderTooSmallError


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def degree_sequence(g):
    """Vertex degrees by networkx, sorted descending."""
    return sorted((d for _, d in to_nx(g).degree), reverse=True)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset([(1, 1)]))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset([(0, 3)]))

    def test_normalizes_edge_orientation(self):
        g = Graph(3, frozenset([(2, 0)]))
        assert (0, 2) in g.edges


class TestPath:
    def test_single_vertex(self):
        g = build_path(1)
        assert g.n == 1 and len(g.edges) == 0

    def test_two_vertices(self):
        assert build_path(2).edges == frozenset([(0, 1)])

    def test_degree_sequence(self):
        assert degree_sequence(build_path(5)) == [2, 2, 2, 1, 1]

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_path(0)


class TestCycle:
    def test_triangle(self):
        g = build_cycle(3)
        assert len(g.edges) == 3

    def test_four_cycle_regular(self):
        assert degree_sequence(build_cycle(4)) == [2, 2, 2, 2]

    def test_six_cycle(self):
        g = build_cycle(6)
        assert len(g.edges) == 6
        assert degree_sequence(g) == [2] * 6
        assert nx.is_connected(to_nx(g))

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_cycle(2)


class TestCoalesce:
    def test_paths_concatenate(self):
        g = coalesce(build_path(2), 1, build_path(2), 0)
        assert nx.is_isomorphic(to_nx(g), to_nx(build_path(3)))

    def test_star_from_p2_and_p3(self):
        g = coalesce(build_path(2), 0, build_path(3), 1)
        assert sorted(degree_sequence(g), reverse=True) == [3, 1, 1, 1]
        assert nx.is_isomorphic(to_nx(g), to_nx(build_z(4)))

    def test_z6_from_p4_and_p3(self):
        g = coalesce(build_path(4), 3, build_path(3), 1)
        assert degree_sequence(g) == [3, 2, 2, 1, 1, 1]
        assert nx.is_isomorphic(to_nx(g), to_nx(build_z(6)))

    def test_vertex_count_and_identified_degree(self):
        g, h = build_path(5), build_cycle(4)
        merged = coalesce(g, 2, h, 0)
        assert merged.n == g.n + h.n - 1
        assert len(merged.edges) == len(g.edges) + len(h.edges)
        assert to_nx(merged).degree[2] == to_nx(g).degree[2] + to_nx(h).degree[0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            coalesce(build_path(3), 3, build_path(3), 0)
        with pytest.raises(IndexError):
            coalesce(build_path(3), 0, build_path(3), -1)


class TestZ:
    def test_z4_is_star(self):
        assert degree_sequence(build_z(4)) == [3, 1, 1, 1]

    def test_z5_degrees(self):
        assert degree_sequence(build_z(5)) == [3, 2, 1, 1, 1]

    def test_z8_structure(self):
        g = build_z(8)
        degs = degree_sequence(g)
        assert len(g.edges) == 7
        assert degs.count(3) == 1 and degs.count(1) == 3

    def test_matches_coalescence_construction(self):
        # the spine 0..n-3 with pendants n-2 and n-1 on its end n-3
        for n in range(4, 40):
            spine = {(i, i + 1) for i in range(n - 3)}
            assert build_z(n).edges == spine | {(n - 3, n - 2), (n - 3, n - 1)}

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_z(3)


class TestW:
    def test_w6_is_h_shape(self):
        g = build_w(6)
        assert degree_sequence(g) == [3, 3, 1, 1, 1, 1]
        # the two degree-3 vertices are adjacent
        assert (0, 1) in g.edges

    def test_w7_degrees(self):
        assert degree_sequence(build_w(7)) == [3, 3, 2, 1, 1, 1, 1]

    def test_w8_degrees(self):
        assert degree_sequence(build_w(8)) == [3, 3, 2, 2, 1, 1, 1, 1]

    def test_w10_is_tree(self):
        g = build_w(10)
        assert len(g.edges) == 9 and nx.is_connected(to_nx(g))

    def test_matches_coalescence_construction(self):
        for n in range(7, 40):
            assert nx.is_isomorphic(to_nx(build_w(n)), to_nx(build_w_coalesced(n)))

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_w(5)
        with pytest.raises(OrderTooSmallError):
            build_w_coalesced(6)


class TestTreeInvariants:
    @pytest.mark.parametrize("n", range(4, 60))
    def test_z_is_tree(self, n):
        g = build_z(n)
        assert len(g.edges) == n - 1 and nx.is_connected(to_nx(g))

    @pytest.mark.parametrize("n", range(6, 60))
    def test_w_is_tree(self, n):
        g = build_w(n)
        assert len(g.edges) == n - 1 and nx.is_connected(to_nx(g))

    def test_bipartite_families(self):
        for n in range(4, 30):
            assert nx.is_bipartite(to_nx(build_path(n)))
            assert nx.is_bipartite(to_nx(build_z(n)))
            if n >= 6:
                assert nx.is_bipartite(to_nx(build_w(n)))
            if n % 2 == 0:
                assert nx.is_bipartite(to_nx(build_cycle(n)))
            else:
                assert not nx.is_bipartite(to_nx(build_cycle(n)))


class TestAdjacency:
    def test_p2(self):
        assert np.array_equal(adjacency_matrix(build_path(2)), [[0, 1], [1, 0]])

    def test_c3_all_ones_off_diagonal(self):
        m = adjacency_matrix(build_cycle(3))
        assert np.array_equal(m, np.ones((3, 3)) - np.eye(3))

    def test_z4_row_sums(self):
        m = adjacency_matrix(build_z(4))
        assert sorted(m.sum(axis=1), reverse=True) == [3, 1, 1, 1]
        assert np.array_equal(m, m.T)
        assert np.all(np.diagonal(m) == 0)


class TestFamilySpec:
    def test_minimum_orders(self):
        for fam, bad in [("p", 0), ("c", 2), ("z", 3), ("w", 5)]:
            with pytest.raises(OrderTooSmallError):
                FamilySpec(Family(fam), bad)

    def test_accepts_codes(self):
        assert FamilySpec("z", 4).family is Family.Z_TREE


class TestEdgeList:
    def test_round_trip(self):
        for g in [build_path(1), build_path(7), build_cycle(5), build_w(9)]:
            assert from_edge_list_text(to_edge_list_text(g)) == g

    def test_header_format(self):
        text = to_edge_list_text(build_path(3))
        assert text.splitlines()[0] == "n 3"

    def test_missing_header(self):
        with pytest.raises(ValueError):
            from_edge_list_text("0 1\n1 2\n")
