"""Graph families P_n, C_n, Z_n, W_n, adjacency matrices and edge lists.

Every family is the path spine 0..s-1 in order plus at most four edges at its
ends: C_n closes the spine {0, n-1}; Z_n (s = n-2) hangs pendants n-2, n-1 on
spine end n-3; W_n (s = n-4) hangs n-4, n-3 on spine end 0 and n-2, n-1 on
spine end n-5.  Z_n and W_n are the paper's coalescences: Z_n joins an end of
P_{n-2} to the centre of P_3, W_n joins Z_{n-2}'s vertex 0 to the centre of
P_3.  The fixed labels keep adjacency matrices bit-reproducible across runs.
Only build_family and adjacency_matrix import numpy, when called.
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
        edges = list(edges)
        # a set built in input order, as _normalized builds it, so that the
        # frozenset iterates, and reprs, the same either way
        try:
            normalized = frozenset({(u, v) if u < v else (v, u) for u, v in edges})
            valid = all(0 <= u < v < n for u, v in normalized)
        except (TypeError, ValueError):  # an edge that is no pair of numbers
            valid = False
        if not valid:
            normalized = _normalized(n, edges)
        return super().__new__(cls, n, normalized)


def _normalized(n, edges):
    """Graph's edge check, edge by edge in input order, so that of several bad
    edges the first raises."""
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        normalized.add((min(u, v), max(u, v)))
    return frozenset(normalized)


def _check_dense_order(n: int):
    if n > math.isqrt(MAX_ORDER):  # n^2 entries cannot fit one array
        raise OrderTooLargeError(f"adjacency matrix requires n <= {math.isqrt(MAX_ORDER)}")


def build_family(spec: FamilySpec) -> Graph:
    """The family member for the dense oracle, laid out as the module states.
    An order whose adjacency matrix cannot exist, or cannot fit in memory,
    raises before any edge is built."""
    import numpy as np

    n = spec.n
    _check_dense_order(n)
    np.empty((n, n))  # reserves without touching memory; MemoryError if it cannot
    s, added = {
        Family.PATH: (n, ()),
        Family.CYCLE: (n, ((0, n - 1),)),
        Family.Z_TREE: (n - 2, ((n - 3, n - 2), (n - 3, n - 1))),
        Family.W_TREE: (n - 4, ((0, n - 4), (0, n - 3), (n - 5, n - 2), (n - 5, n - 1))),
    }[spec.family]
    return Graph(n, [*((i, i + 1) for i in range(s - 1)), *added])


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


def _malformed(lineno, line, expected):
    return ValueError(f'line {lineno}: expected "{expected}", got {line!r}')


def from_edge_list_text(text: str) -> Graph:
    """Parse the format of ``to_edge_list_text``; blank lines are skipped.

    A malformed line raises ValueError naming its 1-based line number.
    """
    rows = [fields for fields in map(str.split, text.splitlines()) if fields]
    if not rows or rows[0][0] != "n":
        raise ValueError('edge list must start with a header line "n <count>"')
    try:
        _, count = rows[0]
        n = int(count)
        edges = [(int(u), int(v)) for u, v in rows[1:]]
    except ValueError:
        raise _first_malformed(text) from None
    return Graph(n, edges)


def _first_malformed(text):
    """The error of the first malformed line, the header included; only
    called when one is."""
    lines = ((no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip())
    no, header = next(lines)
    try:
        _, count = header.split()
        int(count)
    except ValueError:
        return _malformed(no, header, "n <count>")
    for no, ln in lines:
        try:
            _, _ = map(int, ln.split())
        except ValueError:
            return _malformed(no, ln, "i j")
