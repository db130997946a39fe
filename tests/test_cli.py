import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from specdist import (
    FamilySpec,
    adjacency_matrix,
    build_family,
    cli,
    closed_spectrum,
    default_grid,
    distance,
    eigensolver,
    graphs,
    limits,
    numeric_spectrum,
    spectrum_deviation,
    to_edge_list_text,
)
from specdist.cli import main
from specdist.distance import MAX_CLOSED_ORDER, pair_min_order
from specdist.graphs import MAX_ORDER, MIN_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(code, *argv, flags=()):
    """python [flags] -c code with argv, in a fresh interpreter on this source tree."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], capture_output=True, text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
    )


class TestSpectrum:
    def test_closed_cycle(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "c", "--n", "4")
        values = [float(v) for v in out.split()]
        assert code == 0
        assert values == pytest.approx([2.0, 0.0, 0.0, -2.0], abs=1e-12)

    def test_both_reports_deviation(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--family", "z", "--n", "4", "--source", "both"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("closed") and lines[1].startswith("numeric")
        assert float(lines[2].split()[1]) < 1e-12
        closed = [float(v) for v in lines[0].split()[1].split(",")]
        assert closed[0] == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_graph_file_has_no_both_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "p3.txt"
        graph_file.write_text(to_edge_list_text(build_family(FamilySpec("p", 3))))
        for fmt in ("text", "csv", "json"):
            code, out, err = run(capsys, "spectrum", "--graph-file", str(graph_file),
                                 "--source", "both", "--format", fmt)
            assert code == 2 and out == ""
            assert err == (
                "error: a graph file has no closed spectrum; --source both needs --family\n"
            )
        # the default source of a graph file is numeric
        outputs = [
            run(capsys, "spectrum", "--graph-file", str(graph_file), "--format", "csv", *source)
            for source in ((), ("--source", "numeric"))
        ]
        assert outputs[0] == outputs[1]
        code, out, _ = outputs[0]
        assert code == 0 and out.startswith("index,eigenvalue\n1,")

    def test_invalid_order_exit_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "w", "--n", "5")
        assert code == 2
        assert "W requires n >= 6" in err

    def test_numeric_source_builds_no_closed_spectrum(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.spectra, "closed_spectrum", None)
        code, out, _ = run(capsys, "spectrum", "--family", "z", "--n", "4",
                           "--source", "numeric")
        assert code == 0 and len(out.split()) == 4

    def test_numeric_order_without_a_matrix_exit_2(self, capsys):
        # refused before an edge of the graph is built
        n = math.isqrt(MAX_ORDER) + 1
        code, out, err = run(capsys, "spectrum", "--family", "p", "--n", str(n),
                             "--source", "numeric")
        assert (code, out) == (2, "")
        assert err == f"error: adjacency matrix requires n <= {n - 1}\n"

    def test_family_numeric_builds_no_graph_and_matches_its_edge_list(
            self, capsys, monkeypatch, tmp_path):
        # the family matrix comes from the layout alone; its eigenvalues are
        # those of the family's edge list read as a graph file, bit for bit
        def no_graph(*args):
            raise AssertionError("a graph was built")

        graph_file = tmp_path / "family.txt"
        for family, k in graphs.family_orders(1, 40):
            graph_file.write_text(to_edge_list_text(build_family(FamilySpec(family, k))))
            code, out, _ = run(capsys, "spectrum", "--graph-file", str(graph_file),
                               "--format", "json")
            assert code == 0
            expected = json.loads(out)["values"]
            with monkeypatch.context() as patch:
                patch.setattr(graphs, "Graph", no_graph)
                for source, key in (("numeric", "values"), ("both", "numeric")):
                    code, out, _ = run(capsys, "spectrum", "--family", family.value,
                                       "--n", str(k), "--source", source, "--format", "json")
                    assert code == 0
                    assert json.loads(out)[key] == expected, (family, k, source)

    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "spec.csv"
        code, _, _ = run(
            capsys, "spectrum", "--family", "p", "--n", "6",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "index,eigenvalue" and len(lines) == 7

    def test_graph_file_oracle(self, capsys, tmp_path):
        graph_file = tmp_path / "p4.txt"
        graph_file.write_text(to_edge_list_text(build_family(FamilySpec("p", 4))))
        code, out, _ = run(
            capsys, "spectrum", "--graph-file", str(graph_file), "--source", "numeric"
        )
        assert code == 0
        values = [float(v) for v in out.split()]
        golden = (1 + math.sqrt(5.0)) / 2
        assert values[0] == pytest.approx(golden, abs=1e-10)

    def test_malformed_graph_file_exit_2(self, capsys, tmp_path):
        # a non-integer vertex, a vertex outside 0..n-1, two bad edges (the
        # first in file order is named), a three-token edge, a bad line after
        # a blank one, a non-integer count, bytes that are not UTF-8, an order
        # whose n x n matrix cannot be allocated
        for text, reason in (
            (b"n 3\n0 x\n", """line 2: expected "i j", got '0 x'"""),
            (b"n 3\n0 7\n", "edge (0, 7) out of range for n=3"),
            (b"n 3\n0 7\n1 1\n", "edge (0, 7) out of range for n=3"),
            (b"n 3\n1 1\n0 7\n", "self-loop at vertex 1"),
            (b"n 3\n0 1 2\n", """line 2: expected "i j", got '0 1 2'"""),
            (b"n 3\n0 1\n\n1 y\n", """line 4: expected "i j", got '1 y'"""),
            (b"n three\n", """line 1: expected "n <count>", got 'n three'"""),
            (b"n 3\n0 1\n\xff\xfe 2\n",
             "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
            (b"n 100000000000\n",
             f"adjacency matrix requires n <= {math.isqrt(MAX_ORDER)}"),
        ):
            graph_file = tmp_path / "bad.txt"
            graph_file.write_bytes(text)
            code, out, err = run(capsys, "spectrum", "--graph-file", str(graph_file))
            assert code == 2 and out == ""
            assert err == f"error: {graph_file}: {reason}\n"

    def test_sweep_budget_exhausted_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(eigensolver, "SWEEP_BUDGET", 1)
        code, out, err = run(
            capsys, "spectrum", "--family", "p", "--n", "30", "--source", "numeric"
        )
        assert code == 4 and out == ""
        assert err == "error: off-diagonal norm still above 3e-11 after 1 sweeps\n"


class TestDist:
    def test_cz_n4(self, capsys):
        code, out, _ = run(capsys, "dist", "--pair", "cz", "--n", "4")
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(
            0.535898, abs=1e-6
        )

    def test_pw_n6(self, capsys):
        code, out, _ = run(capsys, "dist", "--pair", "pw", "--n", "6")
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(
            1.780167, abs=1e-6
        )

    def test_both_mode_residual(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--pair", "wz", "--n", "37", "--mode", "both"
        )
        assert code == 0
        fields = dict(line.split() for line in out.splitlines())
        assert float(fields["residual"]) < 1e-9

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_direct_closed_residual_exit_3(self, capsys, monkeypatch, fmt):
        closed = distance.sigma_closed
        monkeypatch.setattr(distance, "sigma_closed", lambda pair, n: closed(pair, n) + 1e-6)
        code, out, err = run(
            capsys, "dist", "--pair", "pz", "--n", "9", "--mode", "both", "--format", fmt
        )
        assert code == 3
        assert err == "error: direct/closed residual 1e-06 exceeds 1e-09\n"
        if fmt == "json":
            assert out == distance.distance_report("pz", 9).to_json() + "\n"
        else:
            direct, shifted = distance.sigma_direct("pz", 9), closed("pz", 9) + 1e-6
            assert out == (
                f"sigma_direct {direct:.17g}\n"
                f"sigma_closed {shifted:.17g}\n"
                f"residual {abs(direct - shifted):.17g}\n"
                "pattern_matches_proof True\n"
            )

    def test_invalid_order_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "--pair", "pz", "--n", "3")
        assert code == 2
        assert "n >= 4" in err

    def test_order_too_large_exit_2(self, capsys):
        code, out, err = run(capsys, "dist", "--pair", "pz", "--n", str(10**170))
        assert code == 2 and out == ""
        assert err.startswith("error: P requires n <= ")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--family", "p", "--n", str(MAX_ORDER)),
        ("spectrum", "--family", "z", "--n", str(MAX_ORDER)),
        ("spectrum", "--family", "p", "--n", str(MAX_ORDER - 64)),
        ("dist", "--pair", "pz", "--n", str(MAX_ORDER), "--mode", "direct"),
        ("verify", "--check", "additivity", "--n", f"{MAX_ORDER}..{MAX_ORDER}"),
        ("verify", "--check", "additivity", "--n", f"{10**12}..{10**12}"),
        ("dist", "--pair", "pz", "--n", str(MAX_ORDER), "--mode", "both", "--format", "json"),
    ])
    def test_largest_orders_out_of_memory_exit_2(self, capsys, argv):
        # the first spectrum's allocation, of shape (n,), fails at once without
        # touching memory; a soft address-space cap of 1 TiB makes 10**12
        # doubles fail whatever the kernel's overcommit policy
        n = int(argv[argv.index("--n") + 1].split("..")[0])
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2**40 if soft == resource.RLIM_INFINITY else min(soft, 2**40)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code, out, err = run(capsys, *argv)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: out of memory: Unable to allocate \d+\.\d\d [KMGTPE]iB for an "
                            rf"array with shape \({n},\) and data type float64\n", err), err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--family", "p", "--n", "1000000", "--source", "numeric"),
        ("verify", "--check", "oracle", "--n", "1000000..1000000"),
    ])
    def test_matrix_out_of_memory_before_any_edge_exit_2(self, capsys, monkeypatch, argv):
        # the n x n reservation fails at once, before a graph is built
        def no_graph(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graphs, "Graph", no_graph)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        def exhausted(pair, n):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(distance, "sigma_direct", exhausted)
        code, out, err = run(capsys, "dist", "--pair", "pz", "--n", str(10**12))
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"

    @pytest.mark.parametrize("pair,n", [("pz", 1500000), ("wz", 1500002), ("cz", 2000000)])
    def test_pattern_holds_past_float_resolution(self, capsys, pair, n):
        code, out, _ = run(capsys, "dist", "--pair", pair, "--n", str(n), "--mode", "both")
        assert code == 0
        assert out.splitlines()[-1] == "pattern_matches_proof True"

    @pytest.mark.parametrize("pair", ["pz", "wz", "cz"])
    def test_closed_verdict_past_the_int64_bound(self, capsys, pair):
        n = 1518500250  # 4n^2 > 2^63, and even, so valid for cz too
        code, out, err = run(capsys, "dist", "--pair", pair, "--n", str(n), "--mode", "closed")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "pattern_matches_proof True"

    def test_text_output_skips_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(distance, "distance_report", None)
        code, out, _ = run(capsys, "dist", "--pair", "wz", "--n", "37", "--mode", "both")
        assert code == 0 and out.splitlines()[-1] == "pattern_matches_proof True"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--pair", "pz", "--n", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 9
        assert len(payload["diffs"]) == 9 and len(payload["pattern"]) == 9
        assert payload["sigma"] == pytest.approx(
            sum(abs(d) for d in payload["diffs"]), abs=1e-15
        )


class TestVerify:
    def test_interlacing(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "interlacing",
                           "--pair", "pz", "--n", "4..200")
        assert code == 0 and out.startswith("PASS interlacing pz: 197 orders")

    @pytest.mark.parametrize(
        "pair,lo,hi",
        [("pz", 1499990, 1499993), ("wz", 1500000, 1500003), ("cz", 1999998, 2000002)],
    )
    def test_interlacing_past_float_resolution(self, capsys, pair, lo, hi):
        orders = distance.pair_orders(pair, lo, hi)
        code, out, _ = run(capsys, "verify", "--check", "interlacing",
                           "--pair", pair, "--n", f"{lo}..{hi}")
        assert code == 0 and out == f"PASS interlacing {pair}: {len(orders)} orders checked\n"

    @pytest.mark.parametrize("pair", ["pz", "wz", "cz"])
    def test_interlacing_at_huge_orders(self, capsys, pair):
        # across the int64 bound of dense cross-products (4n^2 reaches 2^63
        # past n = 1518500249), up to the closed-form bound
        for lo in (1518500239, 10**12, MAX_CLOSED_ORDER - 100):
            hi = lo + 100
            orders = distance.pair_orders(pair, lo, hi)
            code, out, _ = run(capsys, "verify", "--check", "interlacing",
                               "--pair", pair, "--n", f"{lo}..{hi}")
            assert code == 0
            assert out == f"PASS interlacing {pair}: {len(orders)} orders checked\n"

    def test_additivity(self, capsys):
        orders = range(pair_min_order("pw"), 121)
        worst = max(distance.check_additivity(n) for n in orders)
        code, out, _ = run(capsys, "verify", "--check", "additivity", "--n", "1..120")
        assert code == 0
        assert out == (
            f"PASS additivity: {len(orders)} orders checked, max residual {worst:.3g}\n"
        )

    def test_oracle(self, capsys):
        deviations = []
        for family, minimum in MIN_ORDER.items():
            for n in range(minimum, 41):
                spec = FamilySpec(family, n)
                numeric = numeric_spectrum(adjacency_matrix(build_family(spec)))
                deviations.append(spectrum_deviation(closed_spectrum(spec), numeric))
        code, out, _ = run(capsys, "verify", "--check", "oracle", "--n", "1..40")
        assert code == 0
        assert out == (
            f"PASS oracle: {len(deviations)} spectra checked, "
            f"max deviation {max(deviations):.3g}\n"
        )

    def test_bipartite_symmetry(self, capsys):
        checked = 0
        for family, minimum in MIN_ORDER.items():
            for n in range(minimum, 81):
                if family == "c" and n % 2 != 0:
                    continue  # odd cycles are not bipartite
                values = closed_spectrum(FamilySpec(family, n))
                assert max(abs(values + values[::-1])) < 1e-9
                checked += 1
        code, out, _ = run(
            capsys, "verify", "--check", "bipartite-symmetry", "--n", "1..80"
        )
        assert code == 0 and checked == 271
        assert out == f"PASS bipartite-symmetry: {checked} spectra checked\n"

    def test_symmetry_failure_line(self, capsys, monkeypatch):
        progressions = distance.angle_progressions

        def moved_middle(family, n):
            # Z's middle piece is the zero at k = n//2 + 1, at odd n the
            # mirror of itself: moving its numerator breaks that k alone
            pieces, den = progressions(family, n)
            if family == "z" and n >= 9:
                first, last, step, a, b = pieces[1]
                pieces = (pieces[0], (first, last, step, a + 1, b), pieces[2])
            return pieces, den

        monkeypatch.setattr(distance, "angle_progressions", moved_middle)
        code, out, _ = run(capsys, "verify", "--check", "bipartite-symmetry", "--n", "4..60")
        assert code == 1 and out == "FAIL bipartite-symmetry: family=z n=9 index=5\n"

    def test_additivity_failure_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CONSISTENCY_TOL", 0.0)
        code, out, _ = run(capsys, "verify", "--check", "additivity", "--n", "1..60")
        residual = distance.check_additivity(6)
        assert code == 1 and out == f"FAIL additivity: n=6 residual={residual:.3g}\n"

    def test_interlacing_failure_line(self, capsys, monkeypatch):
        asserted = distance.expected_pattern_runs

        def flipped_from_10(pair, n):
            classes = asserted(pair, n)
            if n >= 10:
                # k = 3 lies in the first class, whatever the step
                step, runs = len(classes), classes[0]
                i, (lo, hi, code) = next(
                    (i, run) for i, run in enumerate(runs) if run[0] <= 3 <= run[1]
                )
                split = [(lo, 3 - step, code), (3, 3, -code), (3 + step, hi, code)]
                runs[i : i + 1] = [run for run in split if run[0] <= run[1]]
            return classes

        monkeypatch.setattr(distance, "expected_pattern_runs", flipped_from_10)
        for pair in ("pz", "wz", "cz"):
            code, out, _ = run(
                capsys, "verify", "--check", "interlacing", "--pair", pair, "--n", "1..60"
            )
            assert code == 1 and out == f"FAIL interlacing {pair}: n=10 index=3\n"

    def test_failure_names_family_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_TOL", 0.0)
        code, out, _ = run(capsys, "verify", "--check", "oracle", "--n", "4..6")
        spec = FamilySpec("p", 4)
        numeric = numeric_spectrum(adjacency_matrix(build_family(spec)))
        deviation = spectrum_deviation(closed_spectrum(spec), numeric)
        assert code == 1 and out == f"FAIL oracle: family=p n=4 deviation={deviation:.3g}\n"

    def test_check_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--help")
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert "  --check {interlacing,additivity,oracle,bipartite-symmetry}\n" in out
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "nope", "--n", "4..6")
        assert exc.value.code == 2
        assert "argument --check: invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--check", "interlacing", "--pair", "pz", "--n", "1..3"),
            ("--check", "interlacing", "--pair", "cz", "--n", "5..5"),
            ("--check", "additivity", "--n", "1..5"),
            ("--check", "oracle", "--n=-3..0"),
            ("--check", "bipartite-symmetry", "--n=-3..0"),
        ],
    )
    def test_no_valid_order_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: no order in")

    def test_bad_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "additivity", "--n", "10..4")
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["abc", "1.."])
    def test_malformed_range_exit_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "oracle", "--n", text])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f'range must look like "a..b", got {text!r}')

    def test_range_below_zero_needs_an_equals_sign(self, capsys):
        # argparse reads "-3..0" after a space as an option, not as --n's value
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "oracle", "--n", "-3..0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "specdist verify: error: argument --n: expected one argument"
        )
        assert run(capsys, "verify", "--check", "oracle", "--n=-3..0") == (
            2, "", "error: no order in -3..0 is valid for oracle\n"
        )


class TestScan:
    def test_cz_within_tolerance(self, capsys, tmp_path):
        out_file = tmp_path / "cz.csv"
        code, out, _ = run(
            capsys, "scan", "--pair", "cz", "--n-max", "100000", "--out", str(out_file)
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["extrapolated"] - 2.0) < 1e-3
        lines = out_file.read_text().splitlines()
        assert lines[0] == "pair,residue,n,sigma,target,abs_error"

    def test_csv_on_stdout_is_the_csv_alone(self, capsys):
        # the JSON summary goes to stderr, so stdout parses as header plus samples
        code, out, err = run(capsys, "scan", "--pair", "cz", "--n-max", "100000")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        summary = json.loads(err)
        assert rows[0] == ["pair", "residue", "n", "sigma", "target", "abs_error"]
        assert [[int(n), float(v)] for _, _, n, v, _, _ in rows[1:]] == summary["samples"]

    def test_pz_residue_scan(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pair", "pz", "--residue", "1", "--n-max", "100000",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["extrapolated"] - 0.9452) < 1e-3

    @pytest.mark.parametrize("argv", [("cz", "--n-max", "100"),
                                      ("wz", "--residue", "1", "--n-max", "150")])
    def test_short_scans_within_tolerance(self, capsys, argv):
        # the two-point step missed SCAN_TOL on these grids (abs_error 3.0e-3
        # and 1.4e-3); the fit on the last three or four samples does not
        code, out, _ = run(capsys, "scan", "--pair", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["abs_error"] <= cli.SCAN_TOL[argv[0]]

    def test_env_tolerance_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRA_TOL", "1e-15")
        code, out, _ = run(capsys, "scan", "--pair", "cz", "--n-max", "10000")
        assert code == 1
        assert "FAIL scan" in out

    def test_env_tolerance_invalid_exit_2(self, capsys, monkeypatch):
        # nan would pass every abs_error; none of these reaches the scan
        monkeypatch.setattr(limits, "sequence_scan", None)
        for value in ("abc", "nan", "-1", "inf"):
            monkeypatch.setenv("SPECTRA_TOL", value)
            code, out, err = run(capsys, "scan", "--pair", "cz", "--n-max", "10000")
            assert code == 2 and out == ""
            assert err == f"error: SPECTRA_TOL={value!r} is not a finite number >= 0\n"

    def test_order_too_large_exit_2(self, capsys):
        for pair in ("pz", "pw"):
            code, out, err = run(
                capsys, "scan", "--pair", pair, "--residue", "1", "--n-max", str(10**170)
            )
            assert code == 2 and out == ""
            assert err == f"error: pair {pair} requires n <= 1e+150\n"

    def test_csv_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "scan", "--pair", "wz", "--residue", "3",
                "--n-max", "50000", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unrecognized_argument_exit_2(self, capsys):
        # reported by scan's own parser, as every other rejection after it
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--pair", "pz", "--residue", "1", "--bogus"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: specdist scan [-h] --pair")
        assert err.endswith("\nspecdist scan: error: unrecognized arguments: --bogus\n")


class TestUsageErrors:
    """Every misuse a handler or the modules below it detect ends with exit 2,
    no output and one "error: " line on stderr."""

    # (argv, SPECTRA_TOL, the line after "error: "); {p3} and {bad} are a
    # valid and a malformed graph file
    ROWS = [
        (("spectrum", "--n", "5"), None,
         "spectrum requires --family and --n (or --graph-file)"),
        (("spectrum", "--family", "p", "--n", "3", "--source", "both", "--format", "csv"), None,
         "--source both has no csv format; use text or json"),
        (("spectrum", "--graph-file", "{p3}", "--source", "closed"), None,
         "a graph file has no closed spectrum; --source closed needs --family"),
        (("spectrum", "--graph-file", "{p3}", "--source", "both"), None,
         "a graph file has no closed spectrum; --source both needs --family"),
        (("spectrum", "--family", "w", "--graph-file", "{p3}"), None,
         "--graph-file takes no --family or --n"),
        (("spectrum", "--n", "9", "--graph-file", "{p3}"), None,
         "--graph-file takes no --family or --n"),
        (("spectrum", "--graph-file", "{bad}"), None,
         """{bad}: line 2: expected "i j", got '0 x'"""),
        (("dist", "--pair", "cz", "--n", "5"), None,
         "pair cz requires an even order"),
        (("verify", "--check", "interlacing", "--n", "4..10"), None,
         "interlacing requires --pair pz, wz or cz"),
        (("verify", "--check", "additivity", "--pair", "pz", "--n", "6..8"), None,
         "--check additivity takes no --pair"),
        (("verify", "--check", "oracle", "--pair", "wz", "--n", "6..8"), None,
         "--check oracle takes no --pair"),
        (("verify", "--check", "bipartite-symmetry", "--pair", "cz", "--n", "6..8"), None,
         "--check bipartite-symmetry takes no --pair"),
        (("verify", "--check", "interlacing", "--pair", "cz", "--n", "5..5"), None,
         "no order in 5..5 is valid for interlacing cz"),
        (("scan", "--pair", "pw", "--n-max", "1000"), None,
         "pair pw requires a residue 0..3, got None"),
        (("scan", "--pair", "cz", "--n-max", "1000"), "abc",
         "SPECTRA_TOL='abc' is not a finite number >= 0"),
        (("scan", "--pair", "pz", "--residue", "0", "--n-max", "3"), None,
         "n_max 3 below the smallest valid order 4"),
        (("scan", "--pair", "cz", "--n-max", "8"), None,
         "extrapolation needs at least 3 samples"),
        (("scan", "--pair", "pz", "--residue", "1", "--n-max", str(10**170)), None,
         "pair pz requires n <= 1e+150"),
        (("scan", "--pair", "cz", "--residue", "0", "--n-max", "1000"), None,
         "pair cz takes no residue, got 0"),
        (("scan", "--pair", "cz", "--residue", "3", "--n-max", "1000"), None,
         "pair cz takes no residue, got 3"),
    ]

    @pytest.mark.parametrize("argv,env_tol,message", ROWS,
                             ids=[" ".join(argv) for argv, _, _ in ROWS])
    def test_one_error_line(self, capsys, monkeypatch, tmp_path, argv, env_tol, message):
        files = {"p3": tmp_path / "p3.txt", "bad": tmp_path / "bad.txt"}
        files["p3"].write_text(to_edge_list_text(build_family(FamilySpec("p", 3))))
        files["bad"].write_text("n 3\n0 x\n")
        if env_tol is None:
            monkeypatch.delenv("SPECTRA_TOL", raising=False)
        else:
            monkeypatch.setenv("SPECTRA_TOL", env_tol)
        code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
        assert (code, out, err) == (2, "", f"error: {message.format(**files)}\n")


class TestParserReuse:
    """main() builds its parser once; no call may leave state for the next."""

    # a JSON dist, then one with --format and --mode at their defaults; an
    # argparse rejection, then a valid call; a scan with and without --n-max
    CALLS = (
        ("dist", "--pair", "pz", "--n", "9", "--mode", "both", "--format", "json"),
        ("dist", "--pair", "pz", "--n", "9"),
        ("verify", "--check", "additivity", "--n", "10..4"),
        ("verify", "--check", "interlacing", "--pair", "cz", "--n", "4..40"),
        ("scan", "--pair", "cz", "--n-max", "1000", "--format", "json"),
        ("scan", "--pair", "cz", "--format", "json"),
    )

    @staticmethod
    def outputs(capsys):
        results = []
        for argv in TestParserReuse.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_outputs_match_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outputs(capsys)
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self.outputs(capsys) == reused

        (code, out, _), (text_code, text, _) = reused[:2]
        assert code == 0 and json.loads(out)["n"] == 9
        assert text_code == 0
        assert text == (
            f"sigma_direct {distance.sigma_direct('pz', 9):.17g}\n"
            "pattern_matches_proof True\n"
        )
        code, out, err = reused[2]
        assert code == "exit 2" and out == "" and "empty range" in err
        assert reused[3] == (0, "PASS interlacing cz: 19 orders checked\n", "")
        limited, default = (json.loads(out) for _, out, _ in reused[4:])
        assert [n for n, _ in limited["samples"]] == default_grid("cz", n_max=1000)
        assert [n for n, _ in default["samples"]] == default_grid(
            "cz", n_max=limits.DEFAULT_N_MAX
        )

    def test_program_values_are_read_per_call(self, capsys, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(limits, "DEFAULT_N_MAX", 500)
        code, out, _ = run(capsys, "scan", "--pair", "cz", "--format", "json")
        assert code == 0
        assert [n for n, _ in json.loads(out)["samples"]] == default_grid("cz", n_max=500)
        monkeypatch.setattr(cli, "run_dist", lambda args: 7)
        assert main(["dist", "--pair", "pz", "--n", "9"]) == 7

    def test_not_built_at_import(self):
        proc = run_fresh("import specdist.cli as c; print(c.build_parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout) == (0, "0\n")


class TestDirectRead:
    """main() reads "--option value" lines without argparse."""

    @staticmethod
    def block_argparse(monkeypatch):
        def parse_known_args(*args, **kwargs):
            raise AssertionError("argparse read the command line")

        for command in cli.build_parser().commands.values():
            monkeypatch.setattr(command, "parse_known_args", parse_known_args)

    # the README's examples that need no input file and no numpy, then one
    # line of each operation the benchmark runs
    @pytest.mark.parametrize("argv", [
        ("verify", "--check", "interlacing", "--pair", "pz", "--n", "4..500"),
        ("verify", "--check", "bipartite-symmetry", "--n", "4..2000"),
        ("scan", "--pair", "pz", "--residue", "1", "--n-max", "100000", "--out", "{tmp}/scan.csv"),
        ("scan", "--pair", "pz", "--residue", "1"),
        ("dist", "--pair", "wz", "--n", "100", "--mode", "closed"),
        ("spectrum", "--family", "z", "--n", "16", "--source", "both", "--format", "json"),
        ("spectrum", "--graph-file", "{tmp}/p3.txt", "--format", "json"),
        ("dist", "--pair", "pz", "--n", "100", "--mode", "both", "--format", "json"),
        ("dist", "--pair", "cz", "--n", "100", "--mode", "both", "--format", "text"),
        ("verify", "--check", "interlacing", "--pair", "wz", "--n", "6..13"),
        ("verify", "--check", "additivity", "--n", "6..13"),
        ("scan", "--pair", "pw", "--residue", "2", "--n-max", "70000", "--format", "csv",
         "--out", "{tmp}/pw.csv"),
        ("scan", "--pair", "cz", "--n-max", "70000", "--format", "json"),
    ], ids=" ".join)
    def test_common_lines_skip_argparse(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "p3.txt").write_text("n 3\n0 1\n1 2\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        expected = run(capsys, *argv)
        self.block_argparse(monkeypatch)
        assert run(capsys, *argv) == expected

    def test_argparse_reads_the_rest(self, monkeypatch):
        self.block_argparse(monkeypatch)
        with pytest.raises(AssertionError, match="argparse read"):
            main(["scan", "--pair=cz"])

    # prints which of argparse and shutil main(argv) left loaded and how many
    # parsers it built, on stderr after the command's own output
    PROBE = ("import sys; from specdist import cli\n"
             "try:\n    code = cli.main(sys.argv[1:])\n"
             "finally:\n    print(sorted({'argparse', 'shutil'} & set(sys.modules)),\n"
             "          cli.build_parser.cache_info().currsize, file=sys.stderr)\n"
             "sys.exit(code)")

    # the README's closed-form lines: no numpy, no input file
    @pytest.mark.parametrize("argv", [
        ("scan", "--pair", "pz", "--residue", "1", "--n-max", "100000", "--out", "{tmp}/scan.csv"),
        ("dist", "--pair", "cz", "--n", "4", "--mode", "closed"),
        ("verify", "--check", "interlacing", "--pair", "pz", "--n", "4..500"),
        ("verify", "--check", "bipartite-symmetry", "--n", "4..2000"),
    ], ids=" ".join)
    def test_well_formed_lines_never_load_argparse(self, capsys, tmp_path, argv):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        proc = run_fresh(self.PROBE, *argv, flags=["-S"])
        assert (proc.returncode, proc.stderr.splitlines()[-1]) == (0, "[] 0"), proc.stderr
        assert proc.stdout == run(capsys, *argv)[1]

    def test_the_rest_still_builds_the_parser(self, capsys):
        proc = run_fresh(self.PROBE, "--help", flags=["-S"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: specdist [-h] {spectrum,dist,verify,scan} ...\n")
        assert proc.stderr == "['argparse', 'shutil'] 1\n"
        proc = run_fresh(self.PROBE, "scan", "--pa", "pz", "--res", "1", flags=["-S"])
        assert proc.returncode == 0
        assert proc.stderr.splitlines()[-1] == "['argparse', 'shutil'] 1"
        assert proc.stdout == run(capsys, "scan", "--pair", "pz", "--residue", "1")[1]


class TestWithoutNumpy:
    """Importing the package loads no numpy, and the closed-form commands run
    where every import of numpy raises, printing what a normal run prints."""

    BLOCKED = ("import sys; sys.modules['numpy'] = None\n"
               "from specdist.cli import main; sys.exit(main(sys.argv[1:]))")

    def test_import_loads_no_numpy(self):
        proc = run_fresh("import sys, specdist, specdist.cli; print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_import_loads_none_of_the_heavy_modules(self):
        # dataclasses would bring inspect, ast and dis; sysconfig only the
        # kernel build needs; pathlib brings urllib.parse and fnmatch; argparse
        # brings gettext, and only a line the grammar table declines needs it.
        # -S skips site, whose .pth files may import pathlib before specdist does
        heavy = ["numpy", "dataclasses", "inspect", "sysconfig", "pathlib", "argparse", "gettext"]
        proc = run_fresh("import sys, specdist, specdist.cli\n"
                         f"print(sorted(set({heavy}) & set(sys.modules)))", flags=["-S"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv", [
        ("scan", "--pair", "pz", "--residue", "1", "--format", "json"),
        *(("dist", "--pair", pair, "--n", "1000002", "--mode", "closed")
          for pair in ("pz", "wz", "pw", "cz")),
        *(("verify", "--check", "interlacing", "--pair", pair, "--n", "4..500")
          for pair in ("pz", "wz", "cz")),
        ("verify", "--check", "bipartite-symmetry", "--n", "4..500"),
    ])
    def test_closed_commands_match_a_normal_run(self, capsys, argv):
        proc = run_fresh(self.BLOCKED, *argv)
        assert run(capsys, *argv) == (0, proc.stdout, "")
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--family", "p", "--n", "5"),
        ("spectrum", "--family", "z", "--n", "4", "--source", "both", "--format", "json"),
        *(("dist", "--pair", "pz", "--n", "100", "--mode", mode)
          for mode in ("direct", "both")),
        ("dist", "--pair", "cz", "--n", "100", "--mode", "closed", "--format", "json"),
        ("verify", "--check", "additivity", "--n", "6..10"),
        ("verify", "--check", "oracle", "--n", "4..10"),
    ])
    def test_array_commands_exit_2_naming_numpy(self, argv):
        proc = run_fresh(self.BLOCKED, *argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: this command needs numpy: [^\n]*numpy[^\n]*\n", proc.stderr)

    @pytest.mark.parametrize("exc", [
        ModuleNotFoundError("No module named 'mpmath'", name="mpmath"),
        ImportError("numpy is installed but broken", name="numpy"),
    ])
    def test_any_other_import_error_surfaces(self, monkeypatch, exc):
        def run_scan(args):
            raise exc

        monkeypatch.setattr(cli, "run_scan", run_scan)
        with pytest.raises(ImportError) as info:
            main(["scan", "--pair", "cz"])
        assert info.value is exc

    def test_scan_out_file_matches_a_normal_run(self, capsys, tmp_path):
        argv = ("scan", "--pair", "cz", "--format", "csv", "--out")
        proc = run_fresh(self.BLOCKED, *argv, str(tmp_path / "blocked.csv"))
        assert run(capsys, *argv, str(tmp_path / "normal.csv")) == (0, proc.stdout, "")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "normal.csv").read_bytes()
