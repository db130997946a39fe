"""Graph families P_n, C_n, Z_n, W_n, adjacency matrices and edge lists.

Every family is the path spine 0..s-1 in order plus at most four edges at its
ends: C_n closes the spine {0, n-1}; Z_n (s = n-2) hangs pendants n-2, n-1 on
spine end n-3; W_n (s = n-4) hangs n-4, n-3 on spine end 0 and n-2, n-1 on
spine end n-5.  Z_n and W_n are the paper's coalescences: Z_n joins an end of
P_{n-2} to the centre of P_3, W_n joins Z_{n-2}'s vertex 0 to the centre of
P_3.  The fixed labels keep adjacency matrices bit-reproducible across runs.
Only build_family, family_adjacency and adjacency_matrix import numpy, when
called.
"""

import math
import sys
from collections import namedtuple
from enum import Enum

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
# sys.maxsize is Py_ssize_t's maximum, which is numpy's intp.
MAX_ORDER = sys.maxsize // 8


def family_orders(lo: int, hi: int):
    """Yield (family, n) for every family in Family order and, within each,
    every valid order n in lo..hi, ascending."""
    for family in Family:
        for n in range(max(lo, MIN_ORDER[family]), hi + 1):
            yield family, n


class FamilySpec(namedtuple("FamilySpec", "family n")):
    """A graph family together with its order; _make and _replace check it too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, family, n: int):
        """Raise unless n is a valid order of the family: OrderTooSmallError
        below MIN_ORDER, OrderTooLargeError above MAX_ORDER."""
        family = Family(family)
        label, minimum = family.value.upper(), MIN_ORDER[family]
        if n < minimum:
            raise OrderTooSmallError(f"{label} requires n >= {minimum}")
        if n > MAX_ORDER:
            raise OrderTooLargeError(f"{label} requires n <= {MAX_ORDER}")
        return super().__new__(cls, family, n)


class Graph(namedtuple("Graph", "n edges")):
    """Undirected simple graph: vertex count plus a frozenset of (i, j) pairs,
    i < j, made from (u, v) pairs checked in their order, by _make and _replace too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
        return super().__new__(cls, n, frozenset(normalized))


def _check_dense_order(n: int):
    if n > math.isqrt(MAX_ORDER):  # n^2 entries cannot fit one array
        raise OrderTooLargeError(f"adjacency matrix requires n <= {math.isqrt(MAX_ORDER)}")


def _layout(spec: FamilySpec):
    """(spine length s, end edges) of the family member, as the module states."""
    n = spec.n
    return {
        Family.PATH: (n, ()),
        Family.CYCLE: (n, ((0, n - 1),)),
        Family.Z_TREE: (n - 2, ((n - 3, n - 2), (n - 3, n - 1))),
        Family.W_TREE: (n - 4, ((0, n - 4), (0, n - 3), (n - 5, n - 2), (n - 5, n - 1))),
    }[spec.family]


def build_family(spec: FamilySpec) -> Graph:
    """The family member, laid out as the module states.  An order whose
    adjacency matrix cannot exist, or cannot fit in memory, raises before any
    edge is built."""
    import numpy as np

    n = spec.n
    _check_dense_order(n)
    np.empty((n, n))  # reserves without touching memory; MemoryError if it cannot
    s, added = _layout(spec)
    return Graph(n, [*((i, i + 1) for i in range(s - 1)), *added])


def family_adjacency(spec: FamilySpec):
    """adjacency_matrix(build_family(spec)), written straight from the layout
    with no Graph: the spine's super- and sub-diagonal as two strided stores
    on the flat view, then the end edges one by one."""
    import numpy as np

    n = spec.n
    _check_dense_order(n)
    m = np.zeros((n, n))  # MemoryError if it cannot fit
    s, added = _layout(spec)
    # spine entries (i, i+1) and (i+1, i), i < s-1, sit at i*(n+1) + 1 and + n
    flat, stop = m.reshape(-1), (s - 1) * (n + 1)
    flat[1:stop:n + 1] = 1.0
    flat[n:stop + n:n + 1] = 1.0
    for u, v in added:
        m[u, v] = 1.0
        m[v, u] = 1.0
    return m


def adjacency_matrix(g: Graph):
    """Dense 0/1 adjacency matrix (a float64 numpy array) with zero diagonal."""
    import numpy as np

    _check_dense_order(g.n)
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


def from_edge_list_text(text: str) -> Graph:
    """Parse the format of ``to_edge_list_text``; blank lines are skipped.

    A malformed line raises ValueError naming its 1-based line number.
    """
    n, edges, expected = None, [], "n <count>"
    try:
        for no, line in enumerate(text.splitlines(), 1):
            fields = line.split()
            if not fields:
                continue
            if n is not None:
                u, v = fields
                edges.append((int(u), int(v)))
            elif fields[0] != "n":
                break
            else:
                _, count = fields
                n, expected = int(count), "i j"
    except ValueError:
        raise ValueError(f'line {no}: expected "{expected}", got {line.strip()!r}') from None
    if n is None:
        raise ValueError('edge list must start with a header line "n <count>"')
    return Graph(n, edges)
