"""Limit scans of the sigma sequences along residue classes mod 4.

Every scan point is a closed-form sigma evaluated in O(1) (Lagrange prefix
sums), so a scan costs O(samples) whatever its n_max; the dense eigensolver
never enters here.  Limits are estimated by a first-order Richardson step
on the last two samples at their own orders.
"""

import json
import math
from collections import namedtuple

from .distance import first_pair_order, pair_min_order, sigma_closed
from .errors import InsufficientSamplesError, OrderTooSmallError, ResidueMismatchError

# (8 - 8*sqrt(2) + 2*pi) / pi, the shared limit of the pz and wz sequences.
L_STAR = (8.0 - 8.0 * math.sqrt(2.0) + 2.0 * math.pi) / math.pi

_TARGETS = {"pz": L_STAR, "wz": L_STAR, "pw": 2.0 * L_STAR, "cz": 2.0}

DEFAULT_N_MAX = 100_000

# the residue classes mod 4 that a scan of pz, wz or pw follows
RESIDUES = (0, 1, 2, 3)


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
    """First-order Richardson step on the last two samples.

    Assumes error ~ c/n: the line through (1/n1, v1) and (1/n2, v2) meets
    1/n = 0 at (n2*v2 - n1*v1) / (n2 - n1), whatever the ratio n2/n1.  When
    n1 is a power of two and n2 = 2*n1, that is 2*v2 - v1 to the bit.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise InsufficientSamplesError("extrapolation needs at least 3 samples")
    ns = [n for n, _ in samples]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample orders must be strictly increasing")
    (n1, v1), (n2, v2) = samples[-2], samples[-1]
    return (n2 * v2 - n1 * v1) / (n2 - n1)


def _scan_residue(pair: str, residue):
    """The residue class a scan of the pair follows: None for cz, whose scans
    take every even order and no residue, else residue, which must be 0..3."""
    if pair == "cz":
        if residue is not None:
            raise ResidueMismatchError(f"pair cz takes no residue, got {residue!r}")
    elif residue not in RESIDUES:
        raise ResidueMismatchError(f"pair {pair} requires a residue 0..3, got {residue!r}")
    return residue


def default_grid(pair: str, residue=None, n_max: int = DEFAULT_N_MAX) -> list[int]:
    """Grid staying inside the residue class: each order is the smallest
    valid one at least twice the previous.

    For cz the grid is exact doubling over even orders.
    """
    residue = _scan_residue(pair, residue)
    n = first_pair_order(pair, 0, residue)  # whatever n_max
    if n > n_max:
        raise OrderTooSmallError(f"n_max {n_max} below the smallest valid order {n}")
    grid = []
    while n <= n_max:
        grid.append(n)
        n = first_pair_order(pair, 2 * n, residue)
    return grid


class LimitEstimate(namedtuple("LimitEstimate",
                               "pair residue samples extrapolated target abs_error")):
    """A sampled sigma sequence, a tuple of (n, sigma), with its extrapolated
    limit; residue is None for cz."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict())

    def to_csv(self) -> str:
        """Scan CSV: pair,residue,n,sigma,target,abs_error per sample row."""
        residue = "" if self.residue is None else str(self.residue)
        head, target = f"{self.pair},{residue},", self.target
        tail = f",{target:.17g},"
        return "pair,residue,n,sigma,target,abs_error\n" + "".join([
            f"{head}{n},{v:.17g}{tail}{abs(v - target):.17g}\n" for n, v in self.samples
        ])


def sequence_scan(pair: str, residue=None, n_max: int = DEFAULT_N_MAX) -> LimitEstimate:
    """Evaluate the closed-form sigma along default_grid and extrapolate the
    limit.  residue is required for pz/wz/pw and refused for cz."""
    samples = tuple([(n, sigma_closed(pair, n)) for n in default_grid(pair, residue, n_max)])
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
