"""Limit scans of the sigma sequences along residue classes mod 4.

Every scan point is a closed-form sigma evaluated in O(1) (Lagrange prefix
sums), so a scan costs O(samples) whatever its n_max; the dense eigensolver
never enters here.  A limit is extrapolated to 1/n = 0 by Neville's tableau
on the last samples at their own orders, to the highest order whose
correction stands above rounding (richardson_extrapolate).
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

# richardson_extrapolate's stop rule, derived in its docstring: a scan sample
# is within SAMPLE_ULPS ulp of its exact value, and a correction whose weights'
# magnitudes sum to at most 2 is rounding when it is within KAPPA ulp
SAMPLE_ULPS = 10
KAPPA = 2 * SAMPLE_ULPS

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
    """Polynomial extrapolation in h = 1/n to h = 0, by Neville's tableau.

    A sample's error expands as c1*h + c2*h**2 + ..., so the polynomial in
    h through the last min(4, len - 1) samples, at their true orders, meets
    h = 0 at the limit up to the next term (Richardson, Phil. Trans. R. Soc.
    A 226 (1927); Bulirsch & Stoer, Numer. Math. 6 (1964)).  The first
    sample, the pair's minimum order, lies outside that regime and never
    enters a fit.  Each tableau entry is the first-order step applied again,
    (n_b*P1 - n_a*P0) / (n_b - n_a), where P0 and P1 are the entries on the
    nodes n_a..n_b less n_b and less n_a.  The diagonal E_1, E_2, E_3 ends
    at the last sample, and E_1 is the two-point step, exact for L + c/n
    whatever n2/n1; so three samples give (n2*v2 - n1*v1) / (n2 - n1), which
    is 2*v2 - v1 to the bit when n1 is a power of two and n2 = 2*n1.

    Stop rule: E_j replaces E_{j-1} only while |E_j - E_{j-1}| exceeds
    KAPPA ulp of E_{j-1}; the first correction within that ends the tableau,
    since rounding alone can make it.  KAPPA follows from the weights:

    - E_j is sum_i l_i v_i, l_i the Lagrange weights at h = 0 of its nodes.
      Every grid order is at least twice the one before, and on such nodes
      sum |l_i| is largest at exact doubling: LAMBDA = 3, 5, 45/7 on 2, 3, 4
      nodes.
    - The correction E_j - E_{j-1} is sum_i d_i v_i, d_i the difference of
      the two entries' weights, and sum |d_i| <= 2 (j = 2 at exact doubling,
      d = (1/3, -1, 2/3); 10/7 at j = 3).
    - A scan's samples lie within SAMPLE_ULPS = 10 ulp of their exact values
      (9.1 at most against mpmath, over every grid order to 10**150).

    So the samples' rounding moves a correction by at most 2 * SAMPLE_ULPS
    = KAPPA = 20 ulp.  The tableau's own rounding, bounded below only
    loosely, adds little: over every grid prefix, corrections that are
    rounding alone reach 16 ulp.  Past n of about 1e9 every correction after
    E_1 is rounding, and the rule returns the two-point step.

    Bound, in ulp of the largest value in the tableau: on v(n) = L + c1/n +
    c2/n**2 + c3/n**3 the four-node entry is L up to rounding, at most
    LAMBDA * rho from samples within rho of their exact values, plus
    TAU = 33 from the tableau itself.  (A step with a = n_b / (n_b - n_a)
    and b = a - 1 rounds two order conversions, two products, the difference,
    the divisor and the quotient, at most 2 (a + b) + 3 ulp, and passes on
    its inputs' errors times a + b <= 3, 5/3, 9/7 in columns 1, 2, 3: 9,
    64/3, 231/7 = 33.)  Stopping one entry early adds at most KAPPA, and
    stopping at E_1 with four nodes also the three-point entry's truncation,
    |c3| / (n1 n2 n3) over the last three orders.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise InsufficientSamplesError("extrapolation needs at least 3 samples")
    ns = [n for n, _ in samples]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample orders must be strictly increasing")
    # the tableau on the last four orders n0 < n1 < n2 < n3, written out;
    # each entry is the step on the two to its left, the diagonal is E_j:
    #   v0
    #   v1  b1
    #   v2  c1  c2
    #   v3  e1  e2  e3
    (n2, v2), (n3, v3) = samples[-2:]
    e1 = (n3 * v3 - n2 * v2) / (n3 - n2)
    if len(samples) == 3:
        return e1
    n1, v1 = samples[-3]
    c1 = (n2 * v2 - n1 * v1) / (n2 - n1)
    e2 = (n3 * e1 - n1 * c1) / (n3 - n1)
    if abs(e2 - e1) <= KAPPA * math.ulp(e1):
        return e1
    if len(samples) == 4:
        return e2
    n0, v0 = samples[-4]
    b1 = (n1 * v1 - n0 * v0) / (n1 - n0)
    c2 = (n2 * c1 - n0 * b1) / (n2 - n0)
    e3 = (n3 * e2 - n0 * c2) / (n3 - n0)
    return e2 if abs(e3 - e2) <= KAPPA * math.ulp(e2) else e3


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
