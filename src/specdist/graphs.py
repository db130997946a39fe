"""Graph families P_n, C_n, Z_n, W_n and the coalescence operation.

Vertex labeling convention: spine (path) vertices come first as 0..m-1 in
path order, pendant vertices are appended after them.  This keeps adjacency
matrices bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OrderTooLargeError, OrderTooSmallError


class Family(str, Enum):
    PATH = "p"
    CYCLE = "c"
    Z_TREE = "z"
    W_TREE = "w"


MIN_ORDER = {
    Family.PATH: 1,
    Family.CYCLE: 3,
    Family.Z_TREE: 4,
    Family.W_TREE: 6,
}

# Largest order whose n float64 eigenvalues fit in one numpy array; above it
# numpy refuses the allocation or, near 2**63, silently returns an empty range.
MAX_ORDER = np.iinfo(np.intp).max // 8

_FAMILY_LABEL = {
    Family.PATH: "P",
    Family.CYCLE: "C",
    Family.Z_TREE: "Z",
    Family.W_TREE: "W",
}


def check_family_order(family, n: int) -> Family:
    """Raise unless n is a valid order of the family (OrderTooSmallError below
    MIN_ORDER, OrderTooLargeError above MAX_ORDER); return it as a Family."""
    family = Family(family)
    minimum = MIN_ORDER[family]
    if n < minimum:
        raise OrderTooSmallError(f"{_FAMILY_LABEL[family]} requires n >= {minimum}")
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"{_FAMILY_LABEL[family]} requires n <= {MAX_ORDER}")
    return family


def family_orders(family, lo: int, hi: int) -> range:
    """The valid orders of the family in lo..hi, ascending."""
    return range(max(lo, MIN_ORDER[Family(family)]), hi + 1)


@dataclass(frozen=True)
class FamilySpec:
    """A graph family together with its order."""

    family: Family
    n: int

    def __post_init__(self):
        object.__setattr__(self, "family", check_family_order(self.family, self.n))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a set of (i, j) pairs, i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))


def build_path(n: int) -> Graph:
    """Path P_n on vertices 0..n-1 in order."""
    check_family_order(Family.PATH, n)
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def build_cycle(n: int) -> Graph:
    """Cycle C_n: the path edges plus the closing edge {n-1, 0}."""
    check_family_order(Family.CYCLE, n)
    edges = set((i, i + 1) for i in range(n - 1))
    edges.add((0, n - 1))
    return Graph(n, frozenset(edges))


def coalesce(g: Graph, u: int, h: Graph, v: int) -> Graph:
    """Identify vertex u of g with vertex v of h.

    Vertices of g keep their labels; the remaining vertices of h are
    relabeled g.n, g.n+1, ... in increasing original order.
    """
    if not 0 <= u < g.n:
        raise IndexError(f"vertex {u} out of range for graph on {g.n} vertices")
    if not 0 <= v < h.n:
        raise IndexError(f"vertex {v} out of range for graph on {h.n} vertices")
    relabel = {}
    nxt = g.n
    for w in range(h.n):
        if w == v:
            relabel[w] = u
        else:
            relabel[w] = nxt
            nxt += 1
    edges = set(g.edges)
    edges.update((relabel[a], relabel[b]) for a, b in h.edges)
    return Graph(g.n + h.n - 1, frozenset(edges))


def build_z(n: int) -> Graph:
    """Snake Z_n: the coalescence of an end of P_{n-2} with the center of P_3.

    Vertices 0..n-3 form the spine; pendants n-2 and n-1 attach to n-3.
    """
    check_family_order(Family.Z_TREE, n)
    return coalesce(build_path(n - 2), n - 3, build_path(3), 1)


def build_w(n: int) -> Graph:
    """Double snake W_n: path on n-4 vertices with two pendants on each end.

    Vertices 0..n-5 form the spine; pendants n-4, n-3 attach to vertex 0 and
    pendants n-2, n-1 attach to vertex n-5.  Built structurally because the
    coalescence route degenerates at n=6.
    """
    check_family_order(Family.W_TREE, n)
    edges = set((i, i + 1) for i in range(n - 5))
    edges.add((0, n - 4))
    edges.add((0, n - 3))
    edges.add((n - 5, n - 2))
    edges.add((n - 5, n - 1))
    return Graph(n, frozenset(edges))


def build_w_coalesced(n: int) -> Graph:
    """W_n as the coalescence of Z_{n-2} and P_3, valid only for n >= 7.

    The identified vertex of Z_{n-2} is its degree-1 spine end (vertex 0),
    the only degree-1 vertex adjacent to a degree-2 vertex.  At n=6 that
    vertex does not exist (Z_4 is a star), hence the stricter minimum.
    """
    if n < 7:
        raise OrderTooSmallError("coalescence form of W requires n >= 7")
    return coalesce(build_z(n - 2), 0, build_path(3), 1)


def build_family(spec: FamilySpec) -> Graph:
    builders = {
        Family.PATH: build_path,
        Family.CYCLE: build_cycle,
        Family.Z_TREE: build_z,
        Family.W_TREE: build_w,
    }
    return builders[spec.family](spec.n)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix with zero diagonal."""
    if g.n > math.isqrt(MAX_ORDER):  # its n^2 entries cannot fit one array
        raise OrderTooLargeError(f"adjacency matrix requires n <= {math.isqrt(MAX_ORDER)}")
    m = np.zeros((g.n, g.n))
    for u, v in g.edges:
        m[u, v] = 1.0
        m[v, u] = 1.0
    return m


def to_edge_list_text(g: Graph) -> str:
    """Edge-list format: header "n <vertex count>", then one "i j" per line."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _malformed(lineno, line, expected):
    return ValueError(f'line {lineno}: expected "{expected}", got {line!r}')


def from_edge_list_text(text: str) -> Graph:
    """Parse the format of ``to_edge_list_text``; blank lines are skipped.

    A malformed line raises ValueError naming its 1-based line number.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("n "):
        raise ValueError('edge list must start with a header line "n <count>"')
    no, header = lines[0]
    try:
        _, count = header.split()
        n = int(count)
    except ValueError:
        raise _malformed(no, header, "n <count>") from None
    edges = set()
    for no, ln in lines[1:]:
        try:
            u, v = (int(tok) for tok in ln.split())
        except ValueError:
            raise _malformed(no, ln, "i j") from None
        edges.add((u, v))
    return Graph(n, frozenset(edges))
