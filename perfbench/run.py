#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the specdist command line.

    python3 perfbench/run.py --workload oracle|interlace|scan|all \\
        --seed N --seconds S --trace 0|1

One client drives ``specdist.cli.main(argv)`` in this process, closed loop:
one operation at a time, BLAS/OpenMP threads capped at 1.  A run repeats the
workload's seeded pass (see workloads.py) and checks every output against an
independent reference (reference.py).  ``--trace 0`` reports the end-to-end
metrics, with latencies scaled to a nominal host speed by a fixed probe timed
after every operation; ``--trace 1`` alternates untraced and traced passes
and reports per-layer metrics per pass (tracer.py).  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 11  # timed fresh-process imports, after one untimed warm-up
MIN_PASSES = 3  # repetitions of every operation in an untraced run
# Median seconds of probe() on a 2-vCPU Intel Xeon VM at its usual speed.
PROBE_NOMINAL_S = 0.0005
SETUP_PROBES = 40  # probe() calls after each fresh-process import

SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import specdist.cli, specdist.eigensolver
t1 = time.perf_counter()
print(repr(t1 - t0))
"""

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

# per-layer metrics of the traced run: "<layer>.<function>.{busy_s,self_s,calls}"
# come from spans, the rest are counters; all are per pass of the workload
LAYER_UNITS = {
    "eigensolver.jacobi_sweeps.busy_s": "s",
    "eigensolver.jacobi_sweeps.self_s": "s",
    "eigensolver.sweeps": "count",
    "eigensolver.sweeps_max": "count",
    "eigensolver.rotations_bound": "count",
    "eigensolver.flops_computed": "flop",
    "eigensolver.bytes_computed": "B",
    "eigensolver.symmetric_eigenvalues.calls": "count",
    "eigensolver.symmetric_eigenvalues.self_s": "s",
    "spectra.numeric_spectrum.self_s": "s",
    "graphs.build_family.busy_s": "s",
    "graphs.adjacency_matrix.busy_s": "s",
    "graphs.from_edge_list_text.busy_s": "s",
    "graphs.edges": "count",
    "spectra.closed_spectrum.calls": "count",
    "spectra.closed_spectrum.busy_s": "s",
    "spectra.spectrum_deviation.busy_s": "s",
    "distance.distance_report.calls": "count",
    "distance.distance_report.self_s": "s",
    "distance.expected_pattern_codes.busy_s": "s",
    "distance.DistanceReport.to_json.busy_s": "s",
    "distance.check_additivity.busy_s": "s",
    "distance.sigma_closed.calls": "count",
    "distance.sigma_closed.busy_s": "s",
    "distance.cos_terms": "count",
    "limits.sequence_scan.calls": "count",
    "limits.sequence_scan.self_s": "s",
    "limits.LimitEstimate.to_csv.busy_s": "s",
    "limits.samples": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.build_parser.busy_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_ratio": "1",
}

# Layers each workload must reach (> 0 calls per pass) or bypass (== 0).
PREDICTIONS = {
    "oracle": {
        "eigensolver.jacobi_sweeps.calls": ">0",
        "graphs.from_edge_list_text.calls": ">0",
        "distance.distance_report.calls": "==0",
        "distance.sigma_closed.calls": "==0",
        "limits.sequence_scan.calls": "==0",
    },
    "interlace": {
        "eigensolver.jacobi_sweeps.calls": "==0",
        "eigensolver.symmetric_eigenvalues.calls": "==0",
        "distance.distance_report.calls": ">0",
        "distance.check_additivity.calls": ">0",
        "limits.sequence_scan.calls": "==0",
    },
    "scan": {
        "eigensolver.jacobi_sweeps.calls": "==0",
        "eigensolver.symmetric_eigenvalues.calls": "==0",
        "distance.distance_report.calls": "==0",
        "distance.sigma_closed.calls": ">0",
        "limits.sequence_scan.calls": ">0",
    },
}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q):
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(v > cut for v in values)


def probe():
    """Seconds of a fixed mix of the kinds of work the program does: row
    updates of a small matrix, JSON text and one vector cosine sum.  Nothing
    of specdist runs here, so a change to the program leaves it alone."""
    import numpy as np  # not at the top: the thread caps must be set first

    matrix = np.arange(256.0).reshape(16, 16) / 256
    angles = np.linspace(0.0, 3.0, 16384)
    t0 = time.perf_counter()
    a = matrix.copy()
    size = 0
    for k in range(24):
        p, q = k % 16, (k + 5) % 16
        col = a[:, p].copy()
        a[:, p] = 0.6 * col - 0.8 * a[:, q]
        a[:, q] = 0.8 * col + 0.6 * a[:, q]
        size += len(json.dumps({"k": k, "v": float(a[p, q])}))
    size += float(np.cos(angles).sum()) > 0
    return time.perf_counter() - t0


class Tally:
    """Verdicts and per-operation latencies of one run phase.

    Every pass repeats the same operations, and an operation's latency is
    the median of its repetitions.  The shared host changes speed by 10-50%
    for seconds to minutes at a time, which no statistic of one run's own
    samples filters out; ``probe()`` runs after every operation and slows
    with the host, so ``scale()`` turns a latency into the latency on the
    host at its nominal speed.  The probe runs no program code: a slower
    program still reads slower."""

    def __init__(self):
        self.samples = {}  # op index -> seconds of each repetition
        self.items = {}  # op index -> items completed
        self.probes = []  # seconds of each probe() call
        self.attempted = 0
        self.failed = 0
        self.digits = math.inf
        self.failures = []

    def add(self, index, op, elapsed, verdict):
        self.samples.setdefault(index, []).append(elapsed)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op.argv)}: {verdict.why}")
            return
        self.items[index] = verdict.items
        if verdict.digits is not None:
            self.digits = min(self.digits, verdict.digits)

    def scale(self):
        """Nominal over measured host speed: 1 without probes, below 1 when
        the host runs slow."""
        return PROBE_NOMINAL_S / statistics.median(self.probes) if self.probes else 1.0

    def latencies(self):
        """Median seconds of each operation, scaled to the nominal host."""
        return [statistics.median(v) * self.scale() for v in self.samples.values()]

    def items_per_s(self):
        return sum(self.items.values()) / sum(self.latencies())


def execute(cli, op):
    """One timed CLI call: (seconds, (code, stdout, stderr, out file text,
    exception)).  Nothing is checked here."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a failed operation; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    out_text = None
    if op.out_path and os.path.exists(op.out_path):
        out_text = Path(op.out_path).read_text(encoding="utf-8")
        os.remove(op.out_path)
    return elapsed, (code, out.getvalue(), err.getvalue(), out_text, error)


def run_op(cli, index, op, ref, tally, tracer=None):
    import reference

    elapsed, outputs = execute(cli, op)
    result = reference.Result(*outputs)
    tally.add(index, op, elapsed, reference.check(op, ref, result))
    if tracer is not None:
        tracer.counters["cli.out_bytes"] += len(result.stdout) + len(result.out_text or "")


def measure_setup(env):
    """Median seconds of a fresh-process import of specdist.cli, and the
    probes timed in this process between the imports."""
    times, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(proc.stdout))
        probes += [probe() for _ in range(SETUP_PROBES)]
    return statistics.median(times), probes


def fingerprint():
    import numpy

    from specdist import eigensolver

    kernels = {}
    for name, module in sorted(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if name.startswith("specdist._jacobi") and path:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            kernels[os.path.relpath(path, ROOT)] = digest
    return {
        "backend": eigensolver.ACTIVE_BACKEND,
        "kernel_modules": kernels,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in [*THREAD_CAPS, "SPECTRA_NO_EXT"]},
    }


def untraced_run(cli, ops, refs, seconds):
    """Whole passes until the next one would end after ``seconds``, and at
    least MIN_PASSES of them."""
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            run_op(cli, i, op, refs[op.key], tally)
            tally.probes.append(probe())
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds and passes >= MIN_PASSES:
            return tally, passes


def traced_run(cli, ops, refs, seconds):
    """Each operation runs untraced and traced back to back, in alternating
    order, so both see the same host; per-layer values are per pass."""
    from tracer import Tracer, layer_totals

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    totals = {"busy_s": Counter(), "self_s": Counter(), "calls": Counter()}
    passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            for with_trace in ((False, True) if (i + passes) % 2 else (True, False)):
                if not with_trace:
                    run_op(cli, i, op, refs[op.key], plain)
                    continue
                tracer.install()
                try:
                    run_op(cli, i, op, refs[op.key], traced, tracer)
                finally:
                    tracer.uninstall()
                for table, part in zip(totals.values(), layer_totals(tracer.spans)):
                    table.update(part)
                tracer.spans.clear()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    layer = {key: v / passes for key, v in tracer.counters.items()}
    for suffix, table in totals.items():
        layer.update({f"{name}.{suffix}": v / passes for name, v in table.items()})
    layer["eigensolver.sweeps_max"] = tracer.counters["eigensolver.sweeps_max"]
    layer["trace.overhead_ratio"] = plain.items_per_s() / traced.items_per_s()
    return plain, traced, layer, tracer.aliases, passes


def check_predictions(workload, layer):
    broken = []
    for key, rule in PREDICTIONS[workload].items():
        value = layer.get(key, 0)
        if (value > 0) != (rule == ">0"):
            broken.append(f"{key} = {value:g}, predicted {rule}")
    return broken


def print_metric(name, value, unit, note):
    print(f"metric {name} = {value!r} {unit}  ({note})")


def run_one(args):
    import reference
    import workloads

    import specdist.cli as cli

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    setup_raw, setup_probes = measure_setup(env)
    setup_scale = PROBE_NOMINAL_S / statistics.median(setup_probes)
    setup_s = setup_raw * setup_scale
    print(f"setup: unscaled median {setup_raw:.6g} s, probe median "
          f"{statistics.median(setup_probes) * 1e3:.4f} ms, scaled by {setup_scale:.4f}")
    print(f"fingerprint {json.dumps(fingerprint(), sort_keys=True)}")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".perfbench_work")
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        for path, text in workload.files.items():
            Path(path).write_text(text, encoding="utf-8")
        refs = {op.key: reference.prepare(op) for op in workload.ops}
        warmed = set()
        for op in workload.ops:  # first call of each kind, untimed and unchecked
            if op.kind not in warmed:
                warmed.add(op.kind)
                execute(cli, op)
        gc.collect()
        if args.trace:
            plain, traced, layer, aliases, passes = traced_run(
                cli, workload.ops, refs, args.seconds)
            tallies = (plain, traced)
        else:
            tally, passes = untraced_run(cli, workload.ops, refs, args.seconds)
            tallies = (tally,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0
    for t in tallies:
        for line in t.failures:
            print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(workload.ops)} ops per pass")

    if args.trace:
        broken = check_predictions(args.workload, layer)
        correct = correct and not broken
        for line in broken:
            print(f"FAIL prediction {line}", file=sys.stderr)
        top = max((k for k in layer if k.endswith(".self_s")), key=layer.get)
        print(f"{passes} passes, each operation untraced and traced; "
              f"bindings wrapped: {json.dumps(dict(aliases), sort_keys=True)}")
        print(f"check bypass predictions: {'FAIL' if broken else 'PASS'} "
              f"({len(PREDICTIONS[args.workload]) - len(broken)} of "
              f"{len(PREDICTIONS[args.workload])} hold)")
        print(f"finding largest self_s: {top} = {layer[top]:.6g} s per pass")
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in LAYER_UNITS.items()}
        for k, m in metrics.items():
            print_metric(k, m["value"], m["unit"], "per pass")
    else:
        lat_ms = [1000 * x for x in tally.latencies()]
        n = f"{len(lat_ms)} operations, each the median of {passes}"
        scale = tally.scale()
        print(f"host speed: probe median {statistics.median(tally.probes) * 1e3:.4f} ms "
              f"over {len(tally.probes)} probes, nominal {PROBE_NOMINAL_S * 1e3:g} ms; "
              f"latencies scaled by {scale:.4f}, unscaled items_per_s "
              f"{tally.items_per_s() * scale:.6g}, "
              f"op_ms_p50 {percentile(lat_ms, 50) / scale:.6g}, "
              f"op_ms_p90 {percentile(lat_ms, 90) / scale:.6g}")
        values = {
            "setup_s": (setup_s, f"median of {SETUP_REPEATS} fresh-process imports, scaled"),
            "items_per_s": (tally.items_per_s(),
                            f"{sum(tally.items.values())} items per pass over "
                            f"{sum(lat_ms) / 1000:.4f} s of scaled median operation time"),
            "op_ms_p50": (percentile(lat_ms, 50), n),
            "op_ms_p90": (percentile(lat_ms, 90), f"{n}; {beyond(lat_ms, 90)} beyond it"),
            "accuracy_digits": (tally.digits, "min over operations against the reference"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "peak RSS of this process"),
        }
        for name, (value, note) in values.items():
            print_metric(name, value, E2E_UNITS[name], note)
        print_metric("fail_ratio", failed / attempted, "1", f"{failed} of {attempted} failed")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in values.items()}
    print(f"check outputs: {'PASS' if correct else 'FAIL'} "
          f"({attempted - failed} of {attempted} operations match their reference)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in ("oracle", "interlace", "scan"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = status or subprocess.run(argv, timeout=900).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["oracle", "interlace", "scan", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specdist" / "cli.py").is_file():
        print(f"error: no specdist sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_CAPS)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
