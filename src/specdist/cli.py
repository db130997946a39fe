"""Command-line front end: spectrum, dist, verify and scan subcommands.

Exit codes: 0 success, 1 verification failure or scan tolerance exceeded,
2 misuse, a numeric command whose Jacobi kernel cannot be built, or an array
command where numpy cannot be imported, 3 internal inconsistency between the
direct and closed sigma paths, 4 the Jacobi eigensolver exhausted its sweep
budget.  Every exit 2 is one "error: ..." line that main() alone prints:
handlers raise UsageError, the modules' order, residue and sample errors are
UsageErrors too, the kernel build's OSError passes through unchanged, and
numpy's ModuleNotFoundError is named as such; any other ImportError is raised.
SPECTRA_TOL overrides the scan acceptance tolerance.  scan prints its JSON
summary on stdout after writing --out, and on stderr when its CSV goes to
stdout, so that stdout holds the CSV alone.  spectrum's --source
defaults to closed for --family and numeric for --graph-file.  One loop serves
verify's four checks: interlacing and bipartite-symmetry are decided exactly;
additivity and oracle compare float residuals with CONSISTENCY_TOL and
ORACLE_TOL.

numpy is imported by the first function that builds an array, not by this
module or the package: scan, dist --mode closed in text and the two exact
verify checks run on Python ints and math alone and never load it (nor the
Jacobi kernel, which only the numeric spectra load).

main() builds the argument parser on its first call and reuses it for every
later call in the process.  When argv[0] names a command, main() reads the
rest of argv straight from that command's store actions if it is only
"--option value" pairs, each option spelled in full and given once, each
value non-empty, not starting with "-", of the option's type and among its
choices, every required option present; options left out get their
defaults.  That command's parser reads every other argv, so argparse still
owns help, errors, abbreviations, the "--option=value" spelling and values
starting with "-".  The top-level parser reads argv only when it is empty or
argv[0] is not a command (--help, -h, an unknown command or an option before
the command).  Either way a rejected argument, unrecognized ones included,
is reported by the parser that read it.  The parser holds no handler,
tolerance or default of the program: each call looks up run_<command> in
this module, the tolerances and limits.DEFAULT_N_MAX when it runs, so they
can be patched between calls.
"""

import argparse
import functools
import json
import os
import sys

from . import distance, graphs, limits, spectra
from .errors import ConvergenceError, UsageError
from .graphs import Family, FamilySpec

CONSISTENCY_TOL = 1e-9
ORACLE_TOL = 1e-8

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
        if args.family is not None or args.n is not None:
            raise UsageError("--graph-file takes no --family or --n")
        if args.source not in (None, "numeric"):
            raise UsageError(
                f"a graph file has no closed spectrum; --source {args.source} needs --family"
            )
        # undecodable bytes, a malformed line and an order too large for the
        # dense matrix are all ValueErrors of the file
        try:
            with open(args.graph_file, encoding="utf-8") as fh:
                g = graphs.from_edge_list_text(fh.read())
            m = graphs.adjacency_matrix(g)
        except ValueError as exc:
            raise UsageError(f"{args.graph_file}: {exc}") from None
        source, values = "numeric", spectra.numeric_spectrum(m)
        label = f"graph-file n={g.n}"
    else:
        if args.family is None or args.n is None:
            raise UsageError("spectrum requires --family and --n (or --graph-file)")
        source = args.source or "closed"
        if source == "both" and args.format == "csv":
            raise UsageError("--source both has no csv format; use text or json")
        spec = FamilySpec(args.family, args.n)
        label = f"{args.family} n={args.n}"
        if source != "numeric":
            values = closed = spectra.closed_spectrum(spec)
        if source != "closed":
            values = spectra.numeric_spectrum(graphs.family_adjacency(spec))

    if source == "both":
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


def _interlacing_rows(pair, lo, hi):
    for n in distance.pair_orders(pair, lo, hi):
        index = distance.pattern_mismatch(pair, n)
        yield f"n={n}", None if index is None else f"index={index}", 0.0


def _additivity_rows(pair, lo, hi):
    for n in distance.pair_orders("pw", lo, hi):
        residual = distance.check_additivity(n)
        failure = f"residual={residual:.3g}" if residual >= CONSISTENCY_TOL else None
        yield f"n={n}", failure, residual


def _oracle_rows(pair, lo, hi):
    for family, n in graphs.family_orders(lo, hi):
        spec = FamilySpec(family, n)
        numeric = spectra.numeric_spectrum(graphs.family_adjacency(spec))
        deviation = spectra.spectrum_deviation(spectra.closed_spectrum(spec), numeric)
        failure = f"deviation={deviation:.3g}" if deviation >= ORACLE_TOL else None
        yield f"family={family.value} n={n}", failure, deviation


def _symmetry_rows(pair, lo, hi):
    for family, n in graphs.family_orders(lo, hi):
        if family is not Family.CYCLE or n % 2 == 0:  # odd cycles are not bipartite
            index = distance.symmetry_mismatch(family, n)
            yield f"family={family.value} n={n}", None if index is None else f"index={index}", 0.0


# check -> (rows over lo..hi as (where, FAIL tail or None, value), noun, the
# quantity whose maximum the PASS line reports, or None for exact checks)
_CHECKS = {
    "interlacing": (_interlacing_rows, "orders", None),
    "additivity": (_additivity_rows, "orders", "residual"),
    "oracle": (_oracle_rows, "spectra", "deviation"),
    "bipartite-symmetry": (_symmetry_rows, "spectra", None),
}


def run_verify(args):
    """Print the check's PASS or first FAIL line; a range with no order valid
    for the check is a usage error."""
    if args.check == "interlacing" and args.pair is None:
        raise UsageError("interlacing requires --pair pz, wz or cz")
    if args.check != "interlacing" and args.pair is not None:
        raise UsageError(f"--check {args.check} takes no --pair")
    check = f"{args.check} {args.pair}" if args.pair else args.check
    rows, noun, quantity = _CHECKS[args.check]
    checked, worst = 0, 0.0
    for where, failure, value in rows(args.pair, *args.n):
        if failure:
            print(f"FAIL {check}: {where} {failure}")
            return 1
        checked, worst = checked + 1, max(worst, value)
    if not checked:
        lo, hi = args.n
        raise UsageError(f"no order in {lo}..{hi} is valid for {check}")
    print(f"PASS {check}: {checked} {noun} checked"
          + (f", max {quantity} {worst:.3g}" if quantity else ""))
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
            raise UsageError(f"SPECTRA_TOL={env_tol!r} is not a finite number >= 0")
    n_max = limits.DEFAULT_N_MAX if args.n_max is None else args.n_max
    estimate = limits.sequence_scan(args.pair, residue=args.residue, n_max=n_max)
    if args.format == "json":
        _emit(estimate.to_json() + "\n", args.out)
    else:
        _emit(estimate.to_csv(), args.out)
    if args.out:
        print(estimate.to_json())
    elif args.format != "json":  # stdout holds the CSV alone
        print(estimate.to_json(), file=sys.stderr)
    if estimate.abs_error > tol:
        print(
            f"FAIL scan {args.pair}: abs_error {estimate.abs_error:.3g} > tolerance {tol:g}"
        )
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every main()
    call; nothing may change it after it is built.  Its commands attribute
    maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Spectral distances between paths, cycles and snake trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    sp = sub.add_parser("spectrum", help="Eigenvalues of a family member")
    sp.add_argument("--family", choices=[f.value for f in Family])
    sp.add_argument("--n", type=int)
    sp.add_argument("--source", choices=["closed", "numeric", "both"])
    sp.add_argument("--graph-file", help="edge-list file for the numeric oracle")
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.add_argument("--out")

    dp = sub.add_parser("dist", help="Spectral distance of a pair at order n")
    dp.add_argument("--pair", choices=distance.PAIRS, required=True)
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--mode", choices=["direct", "closed", "both"], default="direct")
    dp.add_argument("--format", choices=["text", "json"], default="text")
    dp.add_argument("--out")

    vp = sub.add_parser("verify", help="Run a verification suite over a range")
    vp.add_argument("--check", choices=list(_CHECKS), required=True)
    vp.add_argument("--pair", choices=[p for p in distance.PAIRS if p != "pw"])
    vp.add_argument("--n", type=_parse_range, required=True,
                    help='inclusive range "a..b"; write --n=-3..0 for a start below zero')

    cp = sub.add_parser("scan", help="Scan a sigma sequence and extrapolate its limit")
    cp.add_argument("--pair", choices=distance.PAIRS, required=True)
    cp.add_argument("--residue", type=int, choices=[0, 1, 2, 3])
    cp.add_argument("--n-max", type=int)
    cp.add_argument("--format", choices=["csv", "json"], default="csv")
    cp.add_argument("--out")
    return parser


def _read_pairs(command, name, argv):
    """What command.parse_args(argv, Namespace(command=name)) returns, read
    straight from the parser's store actions when argv is only "--option
    value" pairs that it accepts; None for anything else, which argparse then
    reads: help, "--option=value", an abbreviation, a repeated option, a
    value that is empty or starts with "-", a bad type or choice, a missing
    required option or a stray token."""
    if len(argv) % 2:
        return None
    table, given = command._option_string_actions, {}
    for option, text in zip(argv[::2], argv[1::2]):
        action = table.get(option)
        if (type(action) is not argparse._StoreAction or action.dest in given
                or not text or text[0] == "-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command=name)
    for action in command._actions:
        if action.dest in given:
            setattr(args, action.dest, given[action.dest])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, action.default)
    return args


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, no command, or an unknown word or option first
        args = parser.parse_args(argv)
    else:
        args = _read_pairs(command, argv[0], argv[1:])
        if args is None:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        return globals()[f"run_{args.command}"](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: this command needs numpy: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an order too large for this machine's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
