"""Property tests over the command-line grammar, on argv drawn from the
parser's own subcommands, options and choices, plus hostile values and stray
tokens: every command line ends in a documented exit code with its documented
output, never in a traceback, and main(), which reads "--option value" pairs
from the command grammar table and hands the rest of argv to that
command's parser alone, reads it as the full parser does."""

import argparse
import collections
import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import cli
from specdist.cli import build_parser, main
from specdist.graphs import MAX_ORDER


def _mostly(valid, hostile, odds=20):
    """A draw from valid, and one time in odds from hostile instead, so that
    most command lines get past the parser."""
    return st.integers(1, odds).flatmap(lambda i: hostile if i == odds else valid)


# Orders for the commands that build arrays.  An order from about 1e6 to
# MAX_ORDER - 65 passes every check, and the command then allocates up to
# gigabytes, so these stay at 64 or below, or where a check or the allocator
# refuses them at once.
ARRAY_ORDERS = _mostly(
    st.integers(-3, 64),
    st.one_of(st.sampled_from([10**170, 10**200]), st.integers(MAX_ORDER - 64, MAX_ORDER + 1)),
    odds=3,
)
# the closed forms, exact checks and scans cost O(1) or O(log n) per order
ANY_ORDERS = _mostly(ARRAY_ORDERS, st.integers(-(10**200), 10**200), odds=3)
NOT_AN_INT = st.sampled_from(["five", "", "1e3", "0x10"])
NOT_A_RANGE = st.sampled_from(["abc", "1..", "..", "", "4..6..8", "5", "a..b"])
SPECTRA_TOL = st.sampled_from([None, "abc", "nan", "-1", "inf", "", "1e-3"])
# appended to one command line in five; no command takes any of them
STRAY = _mostly(st.just([]), st.sampled_from([["--bogus"], ["--bogus=1"], ["stray"]]), odds=5)

GRAPH_FILES = {
    "p3.txt": b"n 3\n0 1\n1 2\n",
    "malformed.txt": b"n 3\n0 x\n",
    "two-bad-edges.txt": b"n 3\n1 1\n0 7\n",
    "no-vertex.txt": b"n 0\n",
    "empty.txt": b"",
    "undecodable.txt": b"n 3\n0 1\n\xff\xfe 2\n",
    "too-large.txt": b"n 100000000000\n",
}


def _builds_arrays(command, values):
    """Whether the command builds an array, and so needs ARRAY_ORDERS: every
    spectrum, dist but in closed text mode, verify additivity and oracle."""
    if command == "dist":
        return values.get("mode", "direct") != "closed" or values.get("format") == "json"
    if command == "verify":
        return values.get("check") in ("additivity", "oracle")
    return command == "spectrum"


@st.composite
def command_lines(draw, tmp):
    commands = build_parser().commands
    command = draw(st.sampled_from(sorted(commands)))
    actions = [a for a in commands[command]._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)
               and draw(st.integers(0, 19)) < (19 if a.required else 10)]
    values = {a.dest: draw(_mostly(st.sampled_from(list(map(str, a.choices))),
                                   st.sampled_from(["x", "-1"])))
              for a in actions if a.choices is not None}
    orders = ARRAY_ORDERS if _builds_arrays(command, values) else ANY_ORDERS
    for a in actions:
        if a.dest in values:
            continue
        if a.dest == "out":
            values[a.dest] = draw(st.sampled_from(["", "out.txt", "missing/out.txt"]))
        elif a.dest == "graph_file":
            values[a.dest] = draw(st.sampled_from([*GRAPH_FILES, "", "missing.txt"]))
        elif a.type is int:
            values[a.dest] = draw(_mostly(orders.map(str), NOT_AN_INT))
        else:  # verify's --n range; an oracle range covers at most 8 orders
            lo = draw(orders)
            ranges = st.integers(-2, 7).map(lambda d: f"{lo}..{lo + d}")
            values[a.dest] = draw(_mostly(ranges, NOT_A_RANGE))
        if a.dest in ("out", "graph_file"):
            values[a.dest] = os.path.join(tmp, values[a.dest])
    argv = [command]
    # one spelling per line, half of them all "--opt value", which main()
    # reads without argparse; per option, such lines would be rare
    spelling = draw(st.sampled_from(["space", "space", "equals", "mixed"]))
    for a in draw(st.permutations(actions)):
        # "--n -10..-2" reads its value as an option; "--n=-10..-2" does not
        if spelling == "space" or spelling == "mixed" and draw(st.booleans()):
            argv += [a.option_strings[0], values[a.dest]]
        else:
            argv.append(f"{a.option_strings[0]}={values[a.dest]}")
    return argv + draw(STRAY)


def test_every_command_line_ends_in_a_documented_exit(tmp_path):
    for name, data in GRAPH_FILES.items():
        (tmp_path / name).write_bytes(data)

    @settings(max_examples=200, deadline=None)
    @given(argv=command_lines(str(tmp_path)), spectra_tol=SPECTRA_TOL)
    def check(argv, spectra_tol):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop("SPECTRA_TOL", None)
            if spectra_tol is not None:
                os.environ["SPECTRA_TOL"] = spectra_tol
            try:
                code, by_parser = main(argv), False
            except SystemExit as exc:
                code, by_parser = exc.code, True
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3, 4), (argv, code)
        if by_parser:  # the usage, which may wrap, then one error line
            lines = err.splitlines()
            assert (code, out) == (2, ""), argv
            assert lines[0].startswith(f"usage: specdist {argv[0]}"), (argv, err)
            assert [ln for ln in lines if ": error: " in ln] == lines[-1:], (argv, err)
            assert lines[-1].startswith(f"specdist {argv[0]}: error: "), (argv, err)
        elif code == 2:
            assert out == "" and re.fullmatch(r"error: [^\n]+\n", err), (argv, err)

    check()


def _outcome(parse, argv):
    """(what parse(argv) returned, or its exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = f"exit {exc.code}"
    return result, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return vars(build_parser().parse_args(argv))


def _main_parse(argv):
    """The arguments that main() hands to its handler, as a dict."""
    seen = []
    handlers = {f"run_{name}": lambda args: seen.append(vars(args)) or 0
                for name in build_parser().commands}
    with mock.patch.multiple(cli, **handlers):
        assert main(argv) == 0
    return seen.pop()


def test_main_reads_argv_as_the_full_parser_does(tmp_path):
    @settings(max_examples=200, deadline=None)
    @given(argv=command_lines(str(tmp_path)))
    def check(argv):
        full, by_main = _outcome(_full_parse, argv), _outcome(_main_parse, argv)
        if "error: unrecognized arguments: " not in full[2]:
            assert by_main == full, argv
        else:  # the one change: the command's parser reports them
            assert by_main[:2] == full[:2], argv
            assert by_main[2].startswith(f"usage: specdist {argv[0]} "), by_main
            assert by_main[2].splitlines()[-1] == full[2].splitlines()[-1].replace(
                "specdist: ", f"specdist {argv[0]}: ", 1)

    check()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["--bogus", "scan", "--pair", "pz"],
    ["-h", "scan"], ["scan", "--help"],
], ids=repr)
def test_help_and_no_command_first_match_the_full_parser(argv):
    """Help, and argv whose first word is no command, which main() hands to
    the top-level parser, print what the full parser prints, byte for byte."""
    assert _outcome(_main_parse, argv) == _outcome(_full_parse, argv)


def _command_parse(argv):
    """What the named command's own parser returns for the rest of argv."""
    return vars(build_parser().commands[argv[0]].parse_args(
        argv[1:], argparse.Namespace(command=argv[0])))


def _read(argv):
    return cli._read_pairs(argv[0], argv[1:])


def test_the_reader_returns_what_the_command_parser_returns(tmp_path):
    """The reader declines a line or returns what argparse returns for it, and
    it reads at least a quarter of the drawn lines itself."""
    read_by = collections.Counter()

    @settings(max_examples=200, deadline=None)
    @given(argv=command_lines(str(tmp_path)))
    def check(argv):
        args = _read(argv)
        read_by["reader" if args is not None else "argparse"] += 1
        if args is not None:
            assert _outcome(_command_parse, argv) == (vars(args), "", ""), argv

    check()
    assert read_by["reader"] * 4 >= read_by.total(), read_by


@pytest.mark.parametrize("argv", [
    ["dist", "--pair", "pz", "--n", "-5"],
    ["verify", "--check", "additivity", "--n=-3..0"],
    ["scan", "--pa", "pz", "--res", "1"],
    ["scan", "--pair", "pz", "--residue", "2", "--residue", "1"],
    ["spectrum", "--family", "p", "--n", "4", "--out", ""],
    ["dist", "--pair", "pz", "--n", "1e3"],
    ["dist", "--pair", "pz", "--n", "4", "--format", "JSON"],
    ["scan", "--pair", "pz", "-h"],
    ["scan", "--help", "me", "--pair", "pz"],
    ["scan", "--pair"],
    ["dist", "--out", "--n", "5"],
    ["verify", "--n", "4..6"],
], ids=" ".join)
def test_the_reader_declines_what_argparse_reads(argv):
    """Negative and empty values, the equals spelling, abbreviations, repeats,
    bad types and choices, help, a missing value and a missing required
    option all fall through to argparse, which reads them as the full parser
    does."""
    assert _read(argv) is None
    assert _outcome(_main_parse, argv) == _outcome(_full_parse, argv)
