"""Independent references and output checkers for the benchmark operations.

Nothing here imports specdist.  References are computed before the timed
section and cached by operation key:

- oracle: ``numpy.linalg.eigvalsh`` of an adjacency matrix built here;
- interlace: spectra as exact rational angles r (every eigenvalue is
  2cos(pi r)), sign patterns decided by integer cross-multiplication and
  sigma summed in ``np.longdouble``;
- scan: the proven limits L*, 2L* and 2 in ``np.longdouble``.

``check(op, ref, result)`` returns a ``Verdict``; a mismatch is a failed
operation, never an exception.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

# relative tolerance of a spectrum or sigma against its reference
REL_TOL = 1e-10
# absolute tolerance of one eigenvalue difference (|lambda| <= 2 here)
DIFF_TOL = 1e-12
# |sigma_direct - sigma_closed| and the additivity residual, as documented
CONSISTENCY_TOL = 1e-9
# the documented scan acceptance tolerances on |extrapolated - target|
SCAN_TOL = {"pz": 1e-3, "wz": 1e-3, "cz": 1e-3, "pw": 2e-3}
# every scan sample must satisfy |sigma(n) - limit| <= SCAN_SAMPLE_C / n
SCAN_SAMPLE_C = 8.0
# a relative error of 0 is reported as half an ulp of 1
MIN_REL_ERR = 2.0 ** -53

PI = np.longdouble("3.14159265358979323846264338327950288")
L_STAR = (8 - 8 * np.sqrt(np.longdouble(2)) + 2 * PI) / PI
TARGETS = {"pz": L_STAR, "wz": L_STAR, "pw": 2 * L_STAR, "cz": np.longdouble(2)}

PAIR_FAMILIES = {"pz": ("p", "z"), "wz": ("w", "z"), "pw": ("p", "w"), "cz": ("c", "z")}
CODE_NAMES = {1: "G1_above", -1: "G2_above", 0: "equal"}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None = None  # -log10 of the relative error, when numeric
    items: int = 0
    why: str = ""


@dataclass(frozen=True)
class Result:
    code: int | None
    stdout: str
    stderr: str
    out_text: str | None = None
    error: str | None = None


def digits(rel_err):
    return -math.log10(max(float(rel_err), MIN_REL_ERR))


# ---------------------------------------------------------------- oracle


def family_edges(fam, n):
    """Edges of P_n, C_n, Z_n, W_n; Z and W hang their pendants on vertex 0
    (and W also on the far spine end), a labelling the program does not use."""
    if fam == "p":
        return [(i, i + 1) for i in range(n - 1)]
    if fam == "c":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if fam == "z":
        spine = n - 2
        return [(i, i + 1) for i in range(spine - 1)] + [(0, spine), (0, spine + 1)]
    spine = n - 4
    return [(i, i + 1) for i in range(spine - 1)] + [
        (0, spine), (0, spine + 1), (spine - 1, spine + 2), (spine - 1, spine + 3),
    ]


def eigvalsh_desc(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return np.linalg.eigvalsh(a)[::-1].copy()


def _spectrum_error(values, ref):
    values = np.asarray(values, dtype=float)
    if values.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(values - ref))) / float(np.max(np.abs(ref)))


def _check_family(op, ref, result):
    fam, n = op.key[1], op.key[2]
    data = json.loads(result.stdout)
    if data.get("spectrum") != f"{fam} n={n}":
        return Verdict(False, why=f"label {data.get('spectrum')!r}")
    err = max(_spectrum_error(data["numeric"], ref), _spectrum_error(data["closed"], ref))
    if not err <= REL_TOL:
        return Verdict(False, why=f"relative error {err:.3g} against eigvalsh")
    dev = float(np.max(np.abs(np.subtract(data["closed"], data["numeric"]))))
    if abs(data["deviation"] - dev) > 1e-15:
        return Verdict(False, why=f"deviation {data['deviation']!r} is not {dev!r}")
    return Verdict(True, digits(err), op.items)


def _check_graph(op, ref, result):
    data = json.loads(result.stdout)
    if data.get("spectrum") != f"graph-file n={op.key[1]}":
        return Verdict(False, why=f"label {data.get('spectrum')!r}")
    err = _spectrum_error(data["values"], ref)
    if not err <= REL_TOL:
        return Verdict(False, why=f"relative error {err:.3g} against eigvalsh")
    return Verdict(True, digits(err), op.items)


# ------------------------------------------------------------- interlace


def rational_spectrum(fam, n):
    """Ascending numerators over one denominator D: the angles r = num/D with
    lambda = 2cos(pi r), so the list is the spectrum in descending order."""
    if fam == "p":
        return np.arange(1, n + 1, dtype=np.int64), n + 1
    if fam == "c":
        # 2k/n folded into [0, 1]: 0 once, 2k/n twice for 2k < n, 1 if n even
        half = np.repeat(2 * np.arange(1, (n + 1) // 2, dtype=np.int64), 2)
        tail = [n] if n % 2 == 0 else []
        return np.concatenate(([0], half, tail)).astype(np.int64), n
    if fam == "z":
        # 1/2 together with (2k-1)/(2n-2), k = 1..n-1
        nums = np.append(2 * np.arange(1, n, dtype=np.int64) - 1, n - 1)
        return np.sort(nums), 2 * n - 2
    # w: 0, 1/2, 1/2, 1 together with k/(n-3), k = 1..n-4
    d = 2 * (n - 3)
    nums = np.concatenate(([0, n - 3, n - 3, d], 2 * np.arange(1, n - 3, dtype=np.int64)))
    return np.sort(nums), d


def _lambdas(nums, d):
    return 2 * np.cos(nums.astype(np.longdouble) * PI / d)


@dataclass(frozen=True)
class PairReference:
    sigma: np.longdouble
    diffs: np.ndarray  # longdouble lambda1 - lambda2, descending spectra
    codes: np.ndarray  # exact sign of lambda1 - lambda2


def pair_reference(pair, n):
    (n1, d1), (n2, d2) = (rational_spectrum(f, n) for f in PAIR_FAMILIES[pair])
    # lambda1 > lambda2  <=>  r1 < r2  <=>  n1*d2 < n2*d1
    codes = np.sign(n2 * d1 - n1 * d2)
    diffs = _lambdas(n1, d1) - _lambdas(n2, d2)
    return PairReference(np.sum(np.abs(diffs)), diffs, codes)


def _rel(value, ref):
    return abs(np.longdouble(value) - ref) / abs(ref)


def _check_dist_text(op, ref, result):
    pair = op.key[1]
    fields = dict(line.split(" ", 1) for line in result.stdout.splitlines())
    direct, closed = float(fields["sigma_direct"]), float(fields["sigma_closed"])
    residual = float(fields["residual"])
    err = max(_rel(direct, ref.sigma), _rel(closed, ref.sigma))
    if not err <= REL_TOL:
        return Verdict(False, why=f"sigma relative error {err:.3g}")
    if residual != abs(direct - closed) or residual > CONSISTENCY_TOL:
        return Verdict(False, why=f"residual {residual!r}")
    if pair != "pw" and fields.get("pattern_matches_proof") != "True":
        return Verdict(False, why="pattern does not match the proof")
    return Verdict(True, digits(err), op.items)


def _check_dist_json(op, ref, result):
    pair, n = op.key[1], op.key[2]
    data = json.loads(result.stdout)
    if data["pair"] != pair or data["n"] != n:
        return Verdict(False, why=f"pair/n {data['pair']}/{data['n']}")
    err = _rel(data["sigma"], ref.sigma)
    if not err <= REL_TOL:
        return Verdict(False, why=f"sigma relative error {err:.3g}")
    diffs = np.asarray(data["diffs"], dtype=float)
    if diffs.shape != ref.diffs.shape or np.max(np.abs(diffs - ref.diffs)) > DIFF_TOL:
        return Verdict(False, why="diffs differ from the reference")
    expected = [CODE_NAMES[int(c)] for c in ref.codes]
    if data["pattern"] != expected:
        bad = next(i for i, (a, b) in enumerate(zip(data["pattern"], expected)) if a != b)
        return Verdict(False, why=f"sign pattern differs at index {bad + 1}")
    return Verdict(True, digits(err), op.items)


def _check_interlacing(op, ref, result):
    expected = f"PASS interlacing {op.key[1]}: {op.items} orders checked\n"
    if result.stdout != expected:
        return Verdict(False, why=f"output {result.stdout!r}")
    return Verdict(True, None, op.items)


_ADDITIVITY = re.compile(r"PASS additivity: (\d+) orders checked, max residual (\S+)\n")


def additivity_reference(a, b):
    """Worst longdouble residual |sigma(P,W) - sigma(P,Z) - sigma(W,Z)|."""
    worst = np.longdouble(0)
    for n in range(max(a, 6), b + 1):
        s = {p: pair_reference(p, n).sigma for p in ("pw", "pz", "wz")}
        worst = max(worst, abs(s["pw"] - s["pz"] - s["wz"]))
    return worst


def _check_additivity(op, ref, result):
    if ref > CONSISTENCY_TOL:
        return Verdict(False, why=f"reference residual {float(ref):.3g}: additivity fails")
    m = _ADDITIVITY.fullmatch(result.stdout)
    if not m or int(m.group(1)) != op.items or not float(m.group(2)) < CONSISTENCY_TOL:
        return Verdict(False, why=f"output {result.stdout!r}")
    return Verdict(True, None, op.items)


# ------------------------------------------------------------------ scan


def _check_scan(op, ref, result):
    _, pair, residue, n_max, fmt = op.key
    data = json.loads(result.stdout.splitlines()[0])
    if data["pair"] != pair or data["residue"] != residue:
        return Verdict(False, why=f"class {data['pair']}/{data['residue']}")
    samples = data["samples"]
    ns = [s[0] for s in samples]
    if len(ns) < 3 or ns != sorted(set(ns)) or ns[-1] > n_max:
        return Verdict(False, why=f"sample orders {ns}")
    for n, v in samples:
        in_class = n % 2 == 0 if pair == "cz" else n % 4 == residue
        if not in_class or abs(np.longdouble(v) - ref) > SCAN_SAMPLE_C / n:
            return Verdict(False, why=f"sample ({n}, {v!r}) against limit {float(ref)!r}")
    if abs(data["target"] - ref) > 4e-16 * ref:
        return Verdict(False, why=f"target {data['target']!r}")
    error = abs(np.longdouble(data["extrapolated"]) - ref)
    if not error <= SCAN_TOL[pair]:
        return Verdict(False, why=f"extrapolated {data['extrapolated']!r}")
    if data["abs_error"] != abs(data["extrapolated"] - data["target"]):
        return Verdict(False, why=f"abs_error {data['abs_error']!r}")
    if fmt == "csv":
        why = _check_scan_csv(result.out_text, data)
        if why:
            return Verdict(False, why=why)
    return Verdict(True, digits(error / ref), len(samples))


def _check_scan_csv(text, data):
    if text is None:
        return "no CSV file written"
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["pair", "residue", "n", "sigma", "target", "abs_error"]:
        return f"CSV header {rows[0]}"
    residue = "" if data["residue"] is None else str(data["residue"])
    if len(rows) - 1 != len(data["samples"]):
        return f"CSV has {len(rows) - 1} rows for {len(data['samples'])} samples"
    for row, (n, v) in zip(rows[1:], data["samples"]):
        sigma, target, err = (float(x) for x in row[3:])
        if row[:3] != [data["pair"], residue, str(n)] or sigma != v:
            return f"CSV row {row}"
        if target != data["target"] or err != abs(sigma - target):
            return f"CSV row {row}"
    return None


# ----------------------------------------------------------------- entry


def prepare(op):
    """The reference of an operation, computed outside the timed section."""
    if op.kind == "spectrum":
        _, fam, n = op.key
        return eigvalsh_desc(n, family_edges(fam, n))
    if op.kind == "graph":
        _, n, edges = op.key
        return eigvalsh_desc(n, edges)
    if op.kind == "dist":
        return pair_reference(op.key[1], op.key[2])
    if op.kind == "additivity":
        return additivity_reference(op.key[1], op.key[2])
    if op.kind == "scan":
        return TARGETS[op.key[1]]
    return None  # interlacing: the proven pattern holds at every order


_CHECKERS = {
    "spectrum": _check_family,
    "graph": _check_graph,
    "interlacing": _check_interlacing,
    "additivity": _check_additivity,
    "scan": _check_scan,
}


def check(op, ref, result):
    """Verdict on one operation's result against its reference."""
    if result.error is not None:
        return Verdict(False, why=result.error)
    if result.code != 0:
        return Verdict(False, why=f"exit code {result.code}: {result.stderr.strip()[:200]}")
    if op.kind == "dist":
        checker = _check_dist_json if op.key[3] == "json" else _check_dist_text
    else:
        checker = _CHECKERS[op.kind]
    try:
        return checker(op, ref, result)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, StopIteration) as exc:
        return Verdict(False, why=f"unparseable output: {exc!r}")
