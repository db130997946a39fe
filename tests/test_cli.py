import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specdist import (
    FamilySpec,
    adjacency_matrix,
    build_family,
    build_path,
    cli,
    closed_spectrum,
    default_grid,
    distance,
    eigensolver,
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
        graph_file.write_text(to_edge_list_text(build_path(3)))
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
        graph_file.write_text(to_edge_list_text(build_path(4)))
        code, out, _ = run(
            capsys, "spectrum", "--graph-file", str(graph_file), "--source", "numeric"
        )
        assert code == 0
        values = [float(v) for v in out.split()]
        golden = (1 + math.sqrt(5.0)) / 2
        assert values[0] == pytest.approx(golden, abs=1e-10)

    def test_malformed_graph_file_exit_2(self, capsys, tmp_path):
        # a non-integer vertex, a vertex outside 0..n-1, a three-token edge,
        # a bad line after a blank one, a non-integer count, bytes that are
        # not UTF-8, an order whose n x n matrix cannot be allocated
        for text, reason in (
            (b"n 3\n0 x\n", """line 2: expected "i j", got '0 x'"""),
            (b"n 3\n0 7\n", "edge (0, 7) out of range for n=3"),
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

    def test_invalid_order_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "--pair", "pz", "--n", "3")
        assert code == 2
        assert "n >= 4" in err

    def test_order_too_large_exit_2(self, capsys):
        code, out, err = run(capsys, "dist", "--pair", "pz", "--n", str(10**170))
        assert code == 2 and out == ""
        assert err.startswith("error: P requires n <= ")

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
        asymmetries = []
        for family, minimum in MIN_ORDER.items():
            for n in range(minimum, 81):
                if family == "c" and n % 2 != 0:
                    continue  # odd cycles are not bipartite
                values = closed_spectrum(FamilySpec(family, n))
                asymmetries.append(float(max(abs(values + values[::-1]))))
        code, out, _ = run(
            capsys, "verify", "--check", "bipartite-symmetry", "--n", "1..80"
        )
        assert code == 0
        assert out == (
            f"PASS bipartite-symmetry: {len(asymmetries)} spectra checked, "
            f"max asymmetry {max(asymmetries):.3g}\n"
        )

    def test_additivity_failure_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ADDITIVITY_TOL", 0.0)
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

    @pytest.mark.parametrize(
        "check,tol", [("oracle", "ORACLE_TOL"), ("bipartite-symmetry", "SYMMETRY_TOL")]
    )
    def test_failure_names_family_code(self, capsys, monkeypatch, check, tol):
        monkeypatch.setattr(cli, tol, 0.0)
        code, out, _ = run(capsys, "verify", "--check", check, "--n", "4..6")
        assert code == 1 and out.startswith(f"FAIL {check}: family=p n=4 ")

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

    def test_pz_residue_scan(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pair", "pz", "--residue", "1", "--n-max", "100000",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["extrapolated"] - 0.9452) < 1e-3

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
        (("spectrum", "--graph-file", "{bad}"), None,
         """{bad}: line 2: expected "i j", got '0 x'"""),
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
    ]

    @pytest.mark.parametrize("argv,env_tol,message", ROWS,
                             ids=[" ".join(argv) for argv, _, _ in ROWS])
    def test_one_error_line(self, capsys, monkeypatch, tmp_path, argv, env_tol, message):
        files = {"p3": tmp_path / "p3.txt", "bad": tmp_path / "bad.txt"}
        files["p3"].write_text(to_edge_list_text(build_path(3)))
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
        probe = "import specdist.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        )
        assert proc.stdout == "0\n"
