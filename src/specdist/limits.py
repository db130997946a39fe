"""Limit scans of the sigma sequences along residue classes mod 4.

Every scan point is a closed-form sigma evaluated in O(1) (Lagrange prefix
sums), so a scan costs O(samples) whatever its n_max; the dense eigensolver
never enters here.  Limits are estimated by first-order Richardson
extrapolation on an approximately doubling grid.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

from .distance import MAX_CLOSED_ORDER, pair_min_order, pair_orders, sigma_closed
from .errors import InsufficientSamplesError, OrderTooSmallError, ResidueMismatchError

# (8 - 8*sqrt(2) + 2*pi) / pi, the shared limit of the pz and wz sequences.
L_STAR = (8.0 - 8.0 * math.sqrt(2.0) + 2.0 * math.pi) / math.pi

_TARGETS = {"pz": L_STAR, "wz": L_STAR, "pw": 2.0 * L_STAR, "cz": 2.0}

DEFAULT_N_MAX = 100_000

# Extrapolation needs the last two samples to be an n-doubling step: their
# ratio within this window of 2 (residue-preserving grids only double
# approximately).
_DOUBLING_WINDOW = (1.7, 2.3)


def target_constant(pair: str) -> float:
    """The proven limit of the pair's sigma sequence."""
    pair_min_order(pair)  # ValueError for an unknown pair
    return _TARGETS[pair]


def alternating_sum(n: int) -> float:
    """sum_{k=1}^{n-1} (-1)^k cos((2k-1) pi / (4n-2)); tends to -1/2."""
    if n < 2:
        raise OrderTooSmallError("alternating sum requires n >= 2")
    return sum(
        ((-1.0) ** k) * math.cos((2 * k - 1) * math.pi / (4 * n - 2))
        for k in range(1, n)
    )


def richardson_extrapolate(samples) -> float:
    """First-order Richardson step on the last doubling pair.

    Assumes error ~ c/n: from (n, v_n) and (2n, v_2n) the extrapolant is
    2*v_2n - v_n.  Raises ValueError when the final spacing is not
    approximately 2x, where this step does not extrapolate.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise InsufficientSamplesError("extrapolation needs at least 3 samples")
    ns = [n for n, _ in samples]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample orders must be strictly increasing")
    (n1, v1), (n2, v2) = samples[-2], samples[-1]
    lo, hi = _DOUBLING_WINDOW
    if not lo <= n2 / n1 <= hi:
        raise ValueError(f"last step {n1} -> {n2} is not a doubling ({lo}..{hi} times)")
    return 2.0 * v2 - v1


def _scan_residue(pair: str, residue):
    """The residue class a scan of the pair follows: None for cz, whose scans
    take every even order, else residue, which must be 0..3."""
    if pair == "cz":
        return None
    if residue not in (0, 1, 2, 3):
        raise ResidueMismatchError(f"pair {pair} requires a residue 0..3, got {residue!r}")
    return residue


def default_grid(pair: str, residue=None, n_max: int = DEFAULT_N_MAX) -> list[int]:
    """Approximately doubling grid staying inside the residue class: each
    order is the smallest valid one at least twice the previous.

    For cz the grid is exact doubling over even orders; residue is ignored.
    """
    residue = _scan_residue(pair, residue)
    start = pair_orders(pair, 0, MAX_CLOSED_ORDER, residue)[0]  # whatever n_max
    if start > n_max:
        raise OrderTooSmallError(f"n_max {n_max} below the smallest valid order {start}")
    grid = [start]
    while orders := pair_orders(pair, 2 * grid[-1], n_max, residue):
        grid.append(orders[0])
    return grid


@dataclass(frozen=True)
class LimitEstimate:
    """A sampled sigma sequence with its extrapolated limit."""

    pair: str
    residue: int | None
    samples: tuple[tuple[int, float], ...]
    extrapolated: float
    target: float
    abs_error: float

    def to_json(self) -> str:
        return json.dumps(vars(self))

    def to_csv(self) -> str:
        """Scan CSV: pair,residue,n,sigma,target,abs_error per sample row."""
        residue = "" if self.residue is None else str(self.residue)
        buf = io.StringIO()
        buf.write("pair,residue,n,sigma,target,abs_error\n")
        for n, v in self.samples:
            buf.write(
                f"{self.pair},{residue},{n},{v:.17g},{self.target:.17g},"
                f"{abs(v - self.target):.17g}\n"
            )
        return buf.getvalue()


def sequence_scan(pair: str, residue=None, n_max: int = DEFAULT_N_MAX) -> LimitEstimate:
    """Evaluate the closed-form sigma along default_grid and extrapolate the
    limit.  residue is required for pz/wz/pw, ignored for cz."""
    residue = _scan_residue(pair, residue)
    samples = tuple((n, sigma_closed(pair, n)) for n in default_grid(pair, residue, n_max))
    extrapolated = richardson_extrapolate(samples)
    target = target_constant(pair)
    return LimitEstimate(
        pair=pair,
        residue=residue,
        samples=samples,
        extrapolated=extrapolated,
        target=target,
        abs_error=abs(extrapolated - target),
    )
