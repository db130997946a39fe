import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import (
    Family,
    FamilySpec,
    Graph,
    adjacency_matrix,
    build_family,
    from_edge_list_text,
    to_edge_list_text,
)
from specdist.errors import OrderTooLargeError, OrderTooSmallError
from specdist.graphs import MAX_ORDER, MIN_ORDER


def build(family, n):
    return build_family(FamilySpec(family, n))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def degree_sequence(g):
    """Vertex degrees by networkx, sorted descending."""
    return sorted((d for _, d in to_nx(g).degree), reverse=True)


def coalescence(g, u, h, v):
    """networkx graph g with its vertex u identified with vertex v of h."""
    return nx.contracted_nodes(nx.disjoint_union(g, h), u, len(g) + v)


def z_reference(n):
    """The paper's Z_n: an end of P_{n-2} coalesced with the centre of P_3."""
    return coalescence(nx.path_graph(n - 2), n - 3, nx.path_graph(3), 1)


def w_reference(n):
    """The paper's W_n: Z_{n-2}'s degree-1 vertex 0, whose neighbour has
    degree 2, coalesced with the centre of P_3."""
    z = z_reference(n - 2)
    assert z.degree[0] == 1 and z.degree[next(iter(z[0]))] == 2
    return coalescence(z, 0, nx.path_graph(3), 1)


def raised(call, *args, **kwargs):
    """(type, message) of the exception that call(*args, **kwargs) raises."""
    with pytest.raises(Exception) as info:
        call(*args, **kwargs)
    return type(info.value), str(info.value)


# three edges out of range for n = 4 and two self-loops
BAD_EDGES = [(0, 7), (5, 9), (1, 1), (2, 8), (3, 3)]


def spine(s):
    """The path edges of vertices 0..s-1 in order."""
    return {(i, i + 1) for i in range(s - 1)}


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            Graph(3, frozenset([(1, 1)]))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Graph(3, frozenset([(0, 3)]))
        with pytest.raises(ValueError, match=r"^edge \(-1, 0\) out of range for n=3$"):
            Graph(3, frozenset([(-1, 0)]))

    def test_rejects_no_vertex(self):
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            Graph(0, frozenset())

    def test_normalizes_edge_orientation(self):
        g = Graph(3, frozenset([(2, 0)]))
        assert (0, 2) in g.edges
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)}) and type(g.edges) is frozenset

    def test_repr(self):
        assert repr(Graph(3, frozenset([(2, 0)]))) == "Graph(n=3, edges=frozenset({(0, 2)}))"

    def test_make_and_replace_check_as_the_constructor_does(self):
        g = Graph(3, [(2, 0)])
        for edges in ([(1, 1)], [(1, 1), (5, 9)], [(0, 3)]):
            assert raised(g._replace, edges=edges) == raised(Graph, 3, edges)
            assert raised(Graph._make, (3, edges)) == raised(Graph, 3, edges)
        assert raised(g._replace, n=2) == raised(Graph, 2, g.edges)
        assert raised(Graph._make, (0, [])) == raised(Graph, 0, [])
        # a valid one comes out normalised
        h = g._replace(edges=[(2, 1), (1, 2), (1, 0)])
        assert h == Graph(3, frozenset({(0, 1), (1, 2)})) and type(h.edges) is frozenset
        assert Graph._make([4, iter([(3, 0)])]) == Graph(4, frozenset({(0, 3)}))
        assert g._replace(n=5) == Graph(5, frozenset({(0, 2)}))

    def test_fields_cannot_be_assigned(self):
        g = Graph(3, frozenset())
        for field in ("n", "edges"):
            with pytest.raises(AttributeError):
                setattr(g, field, 4)
        assert g == Graph(3, frozenset())


class TestPath:
    def test_single_vertex(self):
        g = build("p", 1)
        assert g.n == 1 and len(g.edges) == 0

    def test_two_vertices(self):
        assert build("p", 2).edges == frozenset([(0, 1)])

    def test_degree_sequence(self):
        assert degree_sequence(build("p", 5)) == [2, 2, 2, 1, 1]

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build("p", 0)


class TestCycle:
    def test_triangle(self):
        g = build("c", 3)
        assert len(g.edges) == 3

    def test_four_cycle_regular(self):
        assert degree_sequence(build("c", 4)) == [2, 2, 2, 2]

    def test_six_cycle(self):
        g = build("c", 6)
        assert len(g.edges) == 6
        assert degree_sequence(g) == [2] * 6
        assert nx.is_connected(to_nx(g))

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build("c", 2)


class TestZ:
    def test_z4_is_star(self):
        assert degree_sequence(build("z", 4)) == [3, 1, 1, 1]

    def test_z5_degrees(self):
        assert degree_sequence(build("z", 5)) == [3, 2, 1, 1, 1]

    def test_z8_structure(self):
        g = build("z", 8)
        degs = degree_sequence(g)
        assert len(g.edges) == 7
        assert degs.count(3) == 1 and degs.count(1) == 3

    def test_matches_coalescence_construction(self):
        for n in range(4, 60):
            assert nx.is_isomorphic(to_nx(build("z", n)), z_reference(n))

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build("z", 3)


class TestW:
    def test_w6_is_h_shape(self):
        g = build("w", 6)
        assert degree_sequence(g) == [3, 3, 1, 1, 1, 1]
        # the two degree-3 vertices are adjacent
        assert (0, 1) in g.edges

    def test_w7_degrees(self):
        assert degree_sequence(build("w", 7)) == [3, 3, 2, 1, 1, 1, 1]

    def test_w8_degrees(self):
        assert degree_sequence(build("w", 8)) == [3, 3, 2, 2, 1, 1, 1, 1]

    def test_w10_is_tree(self):
        g = build("w", 10)
        assert len(g.edges) == 9 and nx.is_connected(to_nx(g))

    def test_matches_coalescence_construction(self):
        # Z_4 is a star with no degree-1 vertex next to a degree-2 one,
        # hence n >= 7
        for n in range(7, 60):
            assert nx.is_isomorphic(to_nx(build("w", n)), w_reference(n))

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build("w", 5)


class TestEdgeSets:
    # each family's two smallest orders, a larger one written out, and n = 2000
    PINNED = [
        ("p", 1, set()),
        ("p", 2, {(0, 1)}),
        ("p", 5, {(0, 1), (1, 2), (2, 3), (3, 4)}),
        ("p", 2000, spine(2000)),
        ("c", 3, {(0, 1), (1, 2), (0, 2)}),
        ("c", 4, {(0, 1), (1, 2), (2, 3), (0, 3)}),
        ("c", 7, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)}),
        ("c", 2000, spine(2000) | {(0, 1999)}),
        ("z", 4, {(0, 1), (1, 2), (1, 3)}),
        ("z", 5, {(0, 1), (1, 2), (2, 3), (2, 4)}),
        ("z", 9, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)}),
        ("z", 2000, spine(1998) | {(1997, 1998), (1997, 1999)}),
        ("w", 6, {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)}),
        ("w", 7, {(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)}),
        ("w", 10, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (0, 7), (5, 8), (5, 9)}),
        ("w", 2000, spine(1996) | {(0, 1996), (0, 1997), (1995, 1998), (1995, 1999)}),
    ]

    @pytest.mark.parametrize("family,n,edges", PINNED)
    def test_labels_pinned(self, family, n, edges):
        assert build(family, n).edges == edges

    def test_order_messages(self):
        for family, label in [("p", "P"), ("c", "C"), ("z", "Z"), ("w", "W")]:
            minimum = MIN_ORDER[Family(family)]
            with pytest.raises(OrderTooSmallError, match=rf"^{label} requires n >= {minimum}$"):
                FamilySpec(family, minimum - 1)
            with pytest.raises(OrderTooLargeError, match=rf"^{label} requires n <= {MAX_ORDER}$"):
                FamilySpec(family, MAX_ORDER + 1)

    def test_max_order_is_numpy_bound(self):
        # stated without numpy, as the largest n float64 values one array holds
        assert MAX_ORDER == np.iinfo(np.intp).max // 8


class TestStructuralSteps:
    """Removing a spine end or edge leaves a smaller family member, for n < 60."""

    @staticmethod
    def minus(g, *vertices):
        h = to_nx(g)
        h.remove_nodes_from(vertices)
        return h

    def test_path_minus_end(self):
        for n in range(2, 60):
            assert nx.is_isomorphic(self.minus(build("p", n), 0), to_nx(build("p", n - 1)))

    def test_cycle_minus_vertex(self):
        for n in range(3, 60):
            assert nx.is_isomorphic(self.minus(build("c", n), 0), to_nx(build("p", n - 1)))

    def test_z_minus_spine_end(self):
        for n in range(5, 60):
            assert nx.is_isomorphic(self.minus(build("z", n), 0), to_nx(build("z", n - 1)))
        for n in range(6, 60):
            assert nx.is_isomorphic(self.minus(build("z", n), 0, 1), to_nx(build("z", n - 2)))

    def test_w_minus_edge_splits_into_p3_and_z(self):
        for n in range(7, 60):
            h = to_nx(build("w", n))
            h.remove_edge(0, 1)
            star, rest = (h.subgraph(c) for c in nx.connected_components(h))
            assert 0 in star and star.degree[0] == 2
            assert nx.is_isomorphic(star, nx.path_graph(3))
            assert nx.is_isomorphic(rest, to_nx(build("z", n - 3)))


class TestTreeInvariants:
    @pytest.mark.parametrize("n", range(4, 60))
    def test_z_is_tree(self, n):
        g = build("z", n)
        assert len(g.edges) == n - 1 and nx.is_connected(to_nx(g))

    @pytest.mark.parametrize("n", range(6, 60))
    def test_w_is_tree(self, n):
        g = build("w", n)
        assert len(g.edges) == n - 1 and nx.is_connected(to_nx(g))

    def test_bipartite_families(self):
        for n in range(4, 30):
            assert nx.is_bipartite(to_nx(build("p", n)))
            assert nx.is_bipartite(to_nx(build("z", n)))
            if n >= 6:
                assert nx.is_bipartite(to_nx(build("w", n)))
            if n % 2 == 0:
                assert nx.is_bipartite(to_nx(build("c", n)))
            else:
                assert not nx.is_bipartite(to_nx(build("c", n)))


class TestAdjacency:
    def test_p2(self):
        assert np.array_equal(adjacency_matrix(build("p", 2)), [[0, 1], [1, 0]])

    def test_c3_all_ones_off_diagonal(self):
        m = adjacency_matrix(build("c", 3))
        assert np.array_equal(m, np.ones((3, 3)) - np.eye(3))

    def test_z4_row_sums(self):
        m = adjacency_matrix(build("z", 4))
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

    def test_repr(self):
        assert repr(FamilySpec("p", 4)) == "FamilySpec(family=<Family.PATH: 'p'>, n=4)"
        assert FamilySpec(family="c", n=3) == FamilySpec(Family.CYCLE, 3)

    def test_rejects_unknown_family(self):
        # too small and too large: TestEdgeSets.test_order_messages
        with pytest.raises(ValueError, match="^'x' is not a valid Family$"):
            FamilySpec("x", 4)

    def test_make_and_replace_check_as_the_constructor_does(self):
        spec = FamilySpec("p", 4)
        assert raised(FamilySpec._make, ("x", -1)) == raised(FamilySpec, "x", -1)
        assert raised(spec._replace, n=0) == raised(FamilySpec, "p", 0)
        assert raised(spec._replace, family="w") == raised(FamilySpec, "w", 4)
        assert raised(FamilySpec._make, ("c", MAX_ORDER + 1)) == raised(
            FamilySpec, "c", MAX_ORDER + 1)
        assert raised(FamilySpec._make, ("c", 2))[0] is OrderTooSmallError
        # a valid one comes out normalised: the code becomes the Family
        assert spec._replace(family="z").family is Family.Z_TREE
        assert spec._replace(family="c", n=5) == FamilySpec(Family.CYCLE, 5)
        assert FamilySpec._make(["w", 6]) == FamilySpec(Family.W_TREE, 6)

    def test_fields_cannot_be_assigned(self):
        spec = FamilySpec("p", 4)
        for field in ("family", "n"):
            with pytest.raises(AttributeError):
                setattr(spec, field, 5)
        assert spec == FamilySpec("p", 4)


class TestEdgeList:
    def test_round_trip(self):
        for g in [build("p", 1), build("p", 7), build("c", 5), build("w", 9)]:
            assert from_edge_list_text(to_edge_list_text(g)) == g

    def test_header_format(self):
        text = to_edge_list_text(build("p", 3))
        assert text.splitlines()[0] == "n 3"

    def test_missing_header(self):
        with pytest.raises(ValueError, match="must start with a header"):
            from_edge_list_text("0 1\n1 2\n")

    def test_header_split_on_any_whitespace(self):
        assert from_edge_list_text("n\t3\n0\t1\n1 2\n") == from_edge_list_text("n 3\n0 1\n1 2\n")

    def test_names_the_first_bad_edge_in_file_order(self):
        for first, second in itertools.permutations(BAD_EDGES, 2):
            text = "n 4\n{} {}\n{} {}\n0 1\n".format(*first, *second)
            assert raised(from_edge_list_text, text) == raised(Graph, 4, [first])

    def test_header_with_extra_field_malformed(self):
        with pytest.raises(ValueError, match=r"^line 1: expected \"n <count>\", got 'n 3 4'$"):
            from_edge_list_text("n 3 4\n0 1\n")


def graph_model(n, edges):
    """Graph's check as a per-edge loop, the reference for its one-pass form:
    (n, edges as a frozenset built as Graph builds it)."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        normalized.add((min(u, v), max(u, v)))
    return n, frozenset(normalized)


def parse_model(text):
    """from_edge_list_text as a per-line parser, the reference for its
    one-pass form."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].split()[0] != "n":
        raise ValueError('edge list must start with a header line "n <count>"')
    no, header = lines[0]
    try:
        _, count = header.split()
        n = int(count)
    except ValueError:
        raise ValueError(f'line {no}: expected "n <count>", got {header!r}') from None
    edges = []
    for no, ln in lines[1:]:
        try:
            u, v = (int(tok) for tok in ln.split())
        except ValueError:
            raise ValueError(f'line {no}: expected "i j", got {ln!r}') from None
        edges.append((u, v))
    return graph_model(n, edges)


def outcome(call, *args):
    """(n, edges in iteration order) of what call returns, or (type, message)
    of what it raises."""
    try:
        n, edges = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return n, list(edges)


@st.composite
def edge_lists(draw, n):
    """Edges in range, a few bad ones among them (self-loops, out-of-range and
    negative vertices), then duplicates and reversed copies at drawn places."""
    inner = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(inner, inner).filter(lambda e: e[0] != e[1]),
                          max_size=10 if n > 1 else 0))
    hostile = st.integers(-3, n + 3)
    for edge in draw(st.lists(st.tuples(hostile, hostile) | hostile.map(lambda u: (u, u)),
                              max_size=3)):
        edges.insert(draw(st.integers(0, len(edges))), edge)
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
    return edges


@st.composite
def graphs_drawn(draw):
    n = draw(st.integers(-1, 12))
    return n, draw(edge_lists(max(n, 1)))


SPACE = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"])
TOKEN = st.integers(-3, 15).map(str) | st.sampled_from(["x", "1.5", "n", "+2", "0_1", "\u0663"])


@st.composite
def edge_list_texts(draw):
    """Edge-list texts: a header, good or not, then edge lines with blank,
    short, long and non-integer ones among them, joined by any line break."""
    n = draw(st.integers(-1, 12))
    good = [f"n {n}", f"n\t{n}", f" n  {n} "]
    lines = [draw(st.sampled_from(good * 4 + ["n", f"n {n} 1", "n x", f"{n} n", ""]))]
    for u, v in draw(edge_lists(max(n, 1))):
        kind = draw(st.sampled_from(["edge"] * 12 + ["blank"] * 2 + ["short", "long", "token"]))
        fields = {"edge": [u, v], "blank": [], "short": [u], "long": [u, v, draw(TOKEN)],
                  "token": [u, draw(TOKEN)]}[kind]
        lines.append(draw(SPACE | st.just("")) + draw(SPACE).join(map(str, fields))
                     + draw(SPACE | st.just("")))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestAgainstTheModels:
    """Graph and from_edge_list_text return what the per-edge and per-line
    models return, the edges in the same iteration order, or raise the same
    exception with the same message."""

    def test_graph_in_one_pass(self):
        @settings(max_examples=200, deadline=None)
        @given(drawn=graphs_drawn(), container=st.sampled_from([list, tuple, iter]))
        def check(drawn, container):
            n, edges = drawn
            assert outcome(Graph, n, container(edges)) == outcome(graph_model, n, container(edges))

        check()

    def test_edge_list_in_one_pass(self):
        @settings(max_examples=200, deadline=None)
        @given(text=edge_list_texts())
        def check(text):
            assert outcome(from_edge_list_text, text) == outcome(parse_model, text)

        check()

    def test_of_several_bad_lines_the_first_is_named(self):
        # malformed lines raise before any bad edge, which the graph checks
        lines = ["x y", "1", *(f"{u} {v}" for u, v in BAD_EDGES[:2])]
        for order in itertools.permutations(lines):
            text = "\n".join(["n 4", "0 1", *order])
            assert outcome(from_edge_list_text, text) == outcome(parse_model, text)
