"""Command-line front end: spectrum, dist, verify and scan subcommands.

Exit codes: 0 success, 1 verification failure or scan tolerance exceeded,
2 invalid arguments or graph order, 3 internal inconsistency between the
direct and closed sigma paths, 4 the Jacobi eigensolver exhausted its sweep
budget without converging.  The SPECTRA_TOL environment variable overrides
the scan acceptance tolerance; a value not a finite number >= 0 exits 2.

main() builds the argument parser on its first call and reuses it for every
later call in the process.  The parser holds no handler, tolerance or default
of the program: each call looks up run_<command> in this module, the
tolerances and limits.DEFAULT_N_MAX when it runs, so they can be patched
between calls.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import distance, graphs, limits, spectra
from .errors import (
    ConvergenceError,
    OrderTooLargeError,
    OrderTooSmallError,
    ResidueMismatchError,
)
from .graphs import Family, FamilySpec

CONSISTENCY_TOL = 1e-9
ORACLE_TOL = 1e-8
ADDITIVITY_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# default scan acceptance tolerances on |extrapolated - target|
SCAN_TOL = {"pz": 1e-3, "wz": 1e-3, "cz": 1e-3, "pw": 2e-3}


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f'range must look like "a..b", got {text!r}')
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _values_line(values):
    return ",".join(f"{v:.17g}" for v in values)


def run_spectrum(args):
    if args.graph_file:
        if args.source == "both":
            print("error: a graph file has no closed spectrum; --source both needs --family",
                  file=sys.stderr)
            return 2
        # undecodable bytes, a malformed line and an order too large for the
        # dense matrix are all ValueErrors of the file
        try:
            with open(args.graph_file, encoding="utf-8") as fh:
                g = graphs.from_edge_list_text(fh.read())
            m = graphs.adjacency_matrix(g)
        except ValueError as exc:
            print(f"error: {args.graph_file}: {exc}", file=sys.stderr)
            return 2
        values = spectra.numeric_spectrum(m)
        label = f"graph-file n={g.n}"
    else:
        if args.family is None or args.n is None:
            print("spectrum requires --family and --n (or --graph-file)", file=sys.stderr)
            return 2
        if args.source == "both" and args.format == "csv":
            print("error: --source both has no csv format; use text or json", file=sys.stderr)
            return 2
        spec = FamilySpec(args.family, args.n)
        label = f"{args.family} n={args.n}"
        closed = spectra.closed_spectrum(spec)
        if args.source == "closed":
            values = closed
        else:
            m = graphs.adjacency_matrix(graphs.build_family(spec))
            values = spectra.numeric_spectrum(m)

    if args.source == "both":
        deviation = spectra.spectrum_deviation(closed, values)
        if args.format == "json":
            payload = {"spectrum": label, "closed": closed.tolist(),
                       "numeric": values.tolist(), "deviation": deviation}
            text = json.dumps(payload) + "\n"
        else:
            text = (
                f"closed  {_values_line(closed)}\n"
                f"numeric {_values_line(values)}\n"
                f"deviation {deviation:.17g}\n"
            )
        _emit(text, args.out)
        return 0

    if args.format == "csv":
        text = spectra.spectrum_to_csv(values)
    elif args.format == "json":
        text = json.dumps({"spectrum": label, "values": values.tolist()}) + "\n"
    else:
        text = "\n".join(f"{v:.17g}" for v in values) + "\n"
    _emit(text, args.out)
    return 0


def run_dist(args):
    # only the JSON output needs the per-index report
    report = distance.distance_report(args.pair, args.n) if args.format == "json" else None
    lines = []
    status = 0
    if args.mode in ("direct", "both"):
        direct = report.sigma if report else distance.sigma_direct(args.pair, args.n)
        lines.append(f"sigma_direct {direct:.17g}")
    if args.mode in ("closed", "both"):
        closed = distance.sigma_closed(args.pair, args.n)
        lines.append(f"sigma_closed {closed:.17g}")
    if args.mode == "both":
        residual = abs(direct - closed)
        lines.append(f"residual {residual:.17g}")
        if residual > CONSISTENCY_TOL:
            status = 3
    if report:
        _emit(report.to_json() + "\n", args.out)
    else:
        if args.pair != "pw":
            holds = distance.pattern_mismatch(args.pair, args.n) is None
            lines.append(f"pattern_matches_proof {holds}")
        _emit("\n".join(lines) + "\n", args.out)
    if status == 3:
        print(
            f"error: direct/closed residual {residual:.3g} exceeds {CONSISTENCY_TOL:g}",
            file=sys.stderr,
        )
    return status


def _additivity_rows(lo, hi):
    for n in distance.pair_orders("pw", lo, hi):
        yield f"n={n}", distance.check_additivity(n)


def _oracle_rows(lo, hi):
    for family in Family:
        for n in graphs.family_orders(family, lo, hi):
            spec = FamilySpec(family, n)
            numeric = spectra.numeric_spectrum(
                graphs.adjacency_matrix(graphs.build_family(spec))
            )
            deviation = spectra.spectrum_deviation(spectra.closed_spectrum(spec), numeric)
            yield f"family={family.value} n={n}", deviation


def _symmetry_rows(lo, hi):
    for family in Family:
        for n in graphs.family_orders(family, lo, hi):
            if family is Family.CYCLE and n % 2 != 0:
                continue  # odd cycles are not bipartite
            values = spectra.closed_spectrum(FamilySpec(family, n))
            asymmetry = float(np.max(np.abs(values + values[::-1])))
            yield f"family={family.value} n={n}", asymmetry


# check -> (rows over lo..hi as (where, value), noun, quantity, tolerance
# name); the tolerance is looked up when the check runs
_TOLERANCE_CHECKS = {
    "additivity": (_additivity_rows, "orders", "residual", "ADDITIVITY_TOL"),
    "oracle": (_oracle_rows, "spectra", "deviation", "ORACLE_TOL"),
    "bipartite-symmetry": (_symmetry_rows, "spectra", "asymmetry", "SYMMETRY_TOL"),
}


def _empty_range(args):
    lo, hi = args.n
    check = f"interlacing {args.pair}" if args.check == "interlacing" else args.check
    print(f"error: no order in {lo}..{hi} is valid for {check}", file=sys.stderr)
    return 2


def _verify_interlacing(args):
    if args.pair is None or args.pair == "pw":
        print("interlacing requires --pair pz, wz or cz", file=sys.stderr)
        return 2
    orders = distance.pair_orders(args.pair, *args.n)
    for n in orders:
        index = distance.pattern_mismatch(args.pair, n)
        if index is not None:
            print(f"FAIL interlacing {args.pair}: n={n} index={index}")
            return 1
    if not orders:
        return _empty_range(args)
    print(f"PASS interlacing {args.pair}: {len(orders)} orders checked")
    return 0


def run_verify(args):
    if args.check == "interlacing":
        return _verify_interlacing(args)
    if args.pair is not None:
        print(f"error: --check {args.check} takes no --pair", file=sys.stderr)
        return 2
    rows, noun, quantity, tol_name = _TOLERANCE_CHECKS[args.check]
    tol = globals()[tol_name]
    worst = 0.0
    checked = 0
    for where, value in rows(*args.n):
        if value >= tol:
            print(f"FAIL {args.check}: {where} {quantity}={value:.3g}")
            return 1
        worst = max(worst, value)
        checked += 1
    if not checked:
        return _empty_range(args)
    print(f"PASS {args.check}: {checked} {noun} checked, max {quantity} {worst:.3g}")
    return 0


def run_scan(args):
    tol = SCAN_TOL[args.pair]
    env_tol = os.environ.get("SPECTRA_TOL")
    if env_tol:
        try:
            tol = float(env_tol)
        except ValueError:
            tol = -1.0
        if not 0.0 <= tol <= sys.float_info.max:  # nan fails both comparisons
            print(f"error: SPECTRA_TOL={env_tol!r} is not a finite number >= 0", file=sys.stderr)
            return 2
    if args.pair != "cz" and args.residue is None:
        print(f"pair {args.pair} requires --residue 0..3", file=sys.stderr)
        return 2
    n_max = limits.DEFAULT_N_MAX if args.n_max is None else args.n_max
    try:
        estimate = limits.sequence_scan(args.pair, residue=args.residue, n_max=n_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(estimate.to_json() + "\n", args.out)
    else:
        _emit(estimate.to_csv(), args.out)
    if args.out or args.format != "json":
        print(estimate.to_json())
    if estimate.abs_error > tol:
        print(
            f"FAIL scan {args.pair}: abs_error {estimate.abs_error:.3g} > tolerance {tol:g}"
        )
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every main()
    call; nothing may change it after it is built."""
    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Spectral distances between paths, cycles and snake trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="Eigenvalues of a family member")
    sp.add_argument("--family", choices=["p", "c", "z", "w"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--source", choices=["closed", "numeric", "both"], default="closed")
    sp.add_argument("--graph-file", help="edge-list file for the numeric oracle")
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.add_argument("--out")

    dp = sub.add_parser("dist", help="Spectral distance of a pair at order n")
    dp.add_argument("--pair", choices=["pz", "wz", "pw", "cz"], required=True)
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--mode", choices=["direct", "closed", "both"], default="direct")
    dp.add_argument("--format", choices=["text", "json"], default="text")
    dp.add_argument("--out")

    vp = sub.add_parser("verify", help="Run a verification suite over a range")
    vp.add_argument(
        "--check",
        choices=["interlacing", "additivity", "oracle", "bipartite-symmetry"],
        required=True,
    )
    vp.add_argument("--pair", choices=["pz", "wz", "cz"])
    vp.add_argument("--n", type=_parse_range, required=True, help='inclusive range "a..b"')

    cp = sub.add_parser("scan", help="Scan a sigma sequence and extrapolate its limit")
    cp.add_argument("--pair", choices=["pz", "wz", "pw", "cz"], required=True)
    cp.add_argument("--residue", type=int, choices=[0, 1, 2, 3])
    cp.add_argument("--n-max", type=int)
    cp.add_argument("--format", choices=["csv", "json"], default="csv")
    cp.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"run_{args.command}"](args)
    except (OrderTooSmallError, OrderTooLargeError, ResidueMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an order too large for this machine's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
