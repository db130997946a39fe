"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import specdist  # noqa: E402
import specdist.cli as cli  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.beyond(values, 90) == 10
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1, 2, 3], 50) == 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_pass_leaves_ten_samples_beyond_p90(name, tmp_path):
    ops = workloads.build(name, 1, tmp_path).ops
    assert run.beyond([float(i) for i in range(len(ops))], 90) >= 10


def test_tally_takes_medians_and_scales_by_the_probe():
    tally = run.Tally()
    ok = reference.Verdict(True, items=2)
    op = Op("spectrum", ("spectrum",), ("k",), 2, 0)
    for elapsed in (1.0, 9.0, 2.0):
        tally.add(0, op, elapsed, ok)
    for elapsed in (4.0, 4.0, 5.0):
        tally.add(1, op, elapsed, ok)
    assert tally.latencies() == [2.0, 4.0]  # no probes: unscaled
    assert tally.items_per_s() == pytest.approx(4 / 6.0)
    # a host at half its nominal speed: probes take twice the nominal time
    tally.probes = [2 * run.PROBE_NOMINAL_S, 2 * run.PROBE_NOMINAL_S, 7.0]
    assert tally.scale() == pytest.approx(0.5)
    assert tally.latencies() == pytest.approx([1.0, 2.0])
    assert tally.items_per_s() == pytest.approx(4 / 3.0)


def test_probe_times_a_fixed_piece_of_work():
    times = [run.probe() for _ in range(5)]
    assert all(0 < t < 1 for t in times)


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    busy, self_, calls = tracer.layer_totals(spans)
    assert busy == pytest.approx({"a": 10.0, "b": 7.0, "c": 1.0})
    assert self_ == pytest.approx({"a": 3.0, "b": 6.0, "c": 1.0})
    assert calls == {"a": 1, "b": 2, "c": 1}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_is_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 7, tmp_path)
    again = workloads.build(name, 7, tmp_path)
    other = workloads.build(name, 8, tmp_path)
    assert first.ops == again.ops and first.files == again.files
    assert [op.argv for op in first.ops] != [op.argv for op in other.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_ops_per_stratum_do_not_depend_on_seed(name, tmp_path):
    def shape(seed):
        ops = workloads.build(name, seed, tmp_path).ops
        per_stratum = Counter((op.kind, op.stratum) for op in ops)
        return sorted(per_stratum.items()), sum(op.items for op in ops)

    assert len({repr(shape(seed)) for seed in range(1, 6)}) == 1


def test_random_graphs_are_connected_and_simple():
    import random

    rng = random.Random(3)
    for n in (4, 17, 60):
        edges = workloads.random_connected_graph(rng, n, n)
        assert len(set(edges)) == len(edges) and all(u < v < n for u, v in edges)
        seen, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        assert len(seen) == n


def test_scan_strata_stay_in_class():
    for pair, residue in workloads.SCAN_CLASSES:
        strata = workloads.scan_strata(pair, residue)
        assert len(strata) == 4
        for lo, hi in strata:
            assert lo < hi and (lo % 2 == 0 if pair == "cz" else lo % 4 == residue)


def _run(op):
    _, outputs = run.execute(cli, op)
    result = reference.Result(*outputs)
    return result, reference.check(op, reference.prepare(op), result)


def _corrupt(op, result, stdout=None, out_text=None):
    corrupted = reference.Result(
        result.code,
        result.stdout if stdout is None else stdout,
        result.stderr,
        result.out_text if out_text is None else out_text,
        result.error,
    )
    return reference.check(op, reference.prepare(op), corrupted)


def test_family_spectrum_checker_flags_a_wrong_eigenvalue():
    argv = ("spectrum", "--family", "w", "--n", "9", "--source", "both", "--format", "json")
    op = Op("spectrum", argv, ("family", "w", 9), 1, 0)
    result, verdict = _run(op)
    assert verdict.ok and verdict.digits > 12
    data = json.loads(result.stdout)
    data["numeric"][3] += 1e-7
    assert not _corrupt(op, result, json.dumps(data)).ok


def test_graph_checker_flags_a_wrong_eigenvalue(tmp_path):
    import random

    edges = workloads.random_connected_graph(random.Random(1), 12, 5)
    path = tmp_path / "g.txt"
    path.write_text(workloads.edge_list_text(12, edges))
    op = Op("graph", ("spectrum", "--graph-file", str(path), "--format", "json"),
            ("graph", 12, edges), 1, 0)
    result, verdict = _run(op)
    assert verdict.ok
    data = json.loads(result.stdout)
    data["values"][-1] -= 1e-7
    assert not _corrupt(op, result, json.dumps(data)).ok


@pytest.mark.parametrize("pair,n", [("pz", 37), ("wz", 40), ("pw", 21), ("cz", 22)])
def test_dist_json_checker_flags_sigma_and_pattern(pair, n):
    argv = ("dist", "--pair", pair, "--n", str(n), "--mode", "both", "--format", "json")
    op = Op("dist", argv, ("dist", pair, n, "json"), 1, 0)
    result, verdict = _run(op)
    assert verdict.ok, verdict.why
    data = json.loads(result.stdout)
    wrong_sigma = dict(data, sigma=data["sigma"] * (1 + 1e-8))
    assert not _corrupt(op, result, json.dumps(wrong_sigma)).ok
    flipped = {"G1_above": "G2_above", "G2_above": "G1_above", "equal": "G1_above"}
    wrong_pattern = dict(data, pattern=[flipped[data["pattern"][0]]] + data["pattern"][1:])
    assert not _corrupt(op, result, json.dumps(wrong_pattern)).ok


def test_exact_pattern_marks_equal_eigenvalues():
    # W_n and Z_n share the eigenvalue 0 (r = 1/2): an exact tie
    ref = reference.pair_reference("wz", 8)
    assert 0 in ref.codes
    assert ref.sigma == pytest.approx(specdist.sigma_direct("wz", 8), rel=1e-14)


def test_dist_text_checker_flags_sigma_and_verdict():
    argv = ("dist", "--pair", "pz", "--n", "101", "--mode", "both", "--format", "text")
    op = Op("dist", argv, ("dist", "pz", 101, "text"), 1, 0)
    result, verdict = _run(op)
    assert verdict.ok, verdict.why
    lines = result.stdout.splitlines()
    direct = float(lines[0].split()[1])
    wrong = result.stdout.replace(lines[0], f"sigma_direct {direct + 1e-6!r}")
    assert not _corrupt(op, result, wrong).ok
    assert not _corrupt(op, result, result.stdout.replace("True", "False")).ok


def test_verify_checkers_flag_wrong_counts():
    op = Op("interlacing", ("verify", "--check", "interlacing", "--pair", "cz", "--n", "10..17"),
            ("interlacing", "cz", 10, 17), 4, 0)
    result, verdict = _run(op)
    assert verdict.ok, verdict.why
    assert not _corrupt(op, result, result.stdout.replace("4 orders", "3 orders")).ok

    op = Op("additivity", ("verify", "--check", "additivity", "--n", "6..13"),
            ("additivity", 6, 13), 8, 0)
    result, verdict = _run(op)
    assert verdict.ok, verdict.why
    bad = result.stdout.rsplit(" ", 1)[0] + " 0.001\n"
    assert not _corrupt(op, result, bad).ok


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_checker_flags_a_wrong_limit(fmt, tmp_path):
    argv = ["scan", "--pair", "pz", "--residue", "1", "--n-max", "5000", "--format", fmt]
    out = None
    if fmt == "csv":
        out = str(tmp_path / "scan.csv")
        argv += ["--out", out]
    op = Op("scan", tuple(argv), ("scan", "pz", 1, 5000, fmt), 0, 0, out)
    result, verdict = _run(op)
    assert verdict.ok, verdict.why
    assert verdict.items == len(json.loads(result.stdout.splitlines()[0])["samples"])
    data = json.loads(result.stdout.splitlines()[0])
    data["extrapolated"] += 1e-2
    data["abs_error"] = abs(data["extrapolated"] - data["target"])
    assert not _corrupt(op, result, json.dumps(data) + "\n").ok
    if fmt == "csv":
        rows = result.out_text.splitlines()
        fields = rows[2].split(",")
        fields[3] = repr(float(fields[3]) + 1e-9)
        bad = "\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n"
        assert not _corrupt(op, result, out_text=bad).ok


def test_failed_calls_are_verdicts_not_exceptions():
    op = Op("dist", ("dist", "--pair", "pz", "--n", "2"), ("dist", "pz", 2, "text"), 1, 0)
    _, outputs = run.execute(cli, op)
    result = reference.Result(*outputs)
    assert result.code == 2
    assert not reference.check(op, None, result).ok
    crashed = reference.Result(None, "", "", None, "RuntimeError: boom")
    assert not reference.check(op, None, crashed).ok


def test_tracer_wraps_every_binding_and_restores_them():
    original = specdist.eigensolver.symmetric_eigenvalues
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = specdist.eigensolver.symmetric_eigenvalues
        assert wrapped is not original
        assert specdist.spectra.symmetric_eigenvalues is wrapped
        assert specdist.symmetric_eigenvalues is wrapped
        assert t.aliases["eigensolver.symmetric_eigenvalues"] >= 3
        _run(Op("spectrum", ("spectrum", "--family", "z", "--n", "7", "--source", "both",
                             "--format", "json"), ("family", "z", 7), 1, 0))
    finally:
        t.uninstall()
    assert specdist.spectra.symmetric_eigenvalues is original
    busy, self_, calls = tracer.layer_totals(t.spans)
    assert calls["cli.main"] == 1 and calls[tracer.KERNEL] == 1
    assert t.counters["eigensolver.sweeps"] >= 1
    assert busy["spectra.numeric_spectrum"] >= busy["eigensolver.symmetric_eigenvalues"]
    assert self_["cli.main"] < busy["cli.main"]


def test_predictions_flag_a_layer_that_was_not_bypassed():
    layer = {"eigensolver.jacobi_sweeps.calls": 3, "distance.distance_report.calls": 5,
             "distance.check_additivity.calls": 1}
    broken = run.check_predictions("interlace", layer)
    assert broken == ["eigensolver.jacobi_sweeps.calls = 3, predicted ==0"]
