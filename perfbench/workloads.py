"""Seeded operation lists for the benchmark workloads.

A workload is one *pass*: a fixed number of CLI operations per size stratum,
in a seeded order.  The seed moves orders, random graphs and ``--n-max``
values inside their strata, so the total work of a pass barely depends on it.
The program receives only the argv built here and the files listed in
``Pass.files``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

FAMILY_MIN = {"p": 1, "c": 3, "z": 4, "w": 6}
PAIR_MIN = {"pz": 4, "wz": 6, "pw": 6, "cz": 4}

# Dense path: (lo, hi, orders per family, random graphs).  Orders stop at
# 32, where a pure-backend pass takes about 1.5 s, so a run repeats every
# operation about 20 times.  The quantiles must not hinge on one operation
# whose order the seed moves, so each falls in the middle of a block of 20
# operations of one order (the seed still draws the random graphs there):
# the median in the block at n 16, the 90th percentile in the block at n 32.
ORACLE_STRATA = (
    (4, 6, 2, 2), (7, 9, 2, 2), (10, 12, 2, 2), (13, 14, 2, 2), (16, 16, 4, 4),
    (18, 22, 2, 2), (24, 28, 2, 2), (32, 32, 4, 4),
)

# Closed-form path.  Geometric strata from 6 to 3000, one order drawn per
# stratum for every (pair, format) and every verify block.
INTERLACE_EDGES = (
    6, 9, 14, 21, 32, 48, 72, 108, 162, 243, 365, 548, 822, 1233, 1850, 2400, 3001,
)
INTERLACE_BLOCK = 8

# Scan path: every pair/residue class, --n-max drawn between consecutive
# rungs of the class's doubling ladder.  At this commit the scan grid top,
# hence the work, is then fixed within a stratum.
SCAN_CLASSES = tuple((pair, r) for pair in ("pz", "wz", "pw") for r in range(4)) + (
    ("cz", None),
)
SCAN_LADDER_RANGE = (62_500, 1_000_000)

WORKLOADS = ("oracle", "interlace", "scan")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``key`` identifies its reference; ``items`` counts the
    spectra, orders or sigma samples it should complete."""

    kind: str
    argv: tuple[str, ...]
    key: tuple
    items: int
    stratum: int
    out_path: str | None = None


@dataclass
class Pass:
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)


def _rng(workload, seed):
    return random.Random(f"perfbench-{workload}-{seed}")


def spread(rng, lo, hi, k):
    """k integers evenly spaced over [lo, hi] behind one random offset, in
    random order: the seed moves them, but the mix of sizes stays fixed."""
    u = rng.random()
    values = [lo + int((i + u) * (hi - lo + 1) / k) for i in range(k)]
    rng.shuffle(values)
    return values


def random_connected_graph(rng, n, extra):
    """A randomly labelled random tree on n vertices plus ``extra`` more edges
    (as many as fit)."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = labels[u], labels[v]
        edges.add((min(a, b), max(a, b)))
    extra = min(extra, n * (n - 1) // 2 - len(edges))
    while extra:
        a, b = rng.sample(range(n), 2)
        e = (min(a, b), max(a, b))
        if e not in edges:
            edges.add(e)
            extra -= 1
    return tuple(sorted(edges))


def edge_list_text(n, edges):
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges])


def oracle_pass(seed, workdir):
    rng = _rng("oracle", seed)
    ops, files = [], {}
    for s, (lo, hi, family_reps, graph_reps) in enumerate(ORACLE_STRATA):
        for fam in "pczw":
            for n in spread(rng, max(lo, FAMILY_MIN[fam]), hi, family_reps):
                argv = ("spectrum", "--family", fam, "--n", str(n),
                        "--source", "both", "--format", "json")
                ops.append(Op("spectrum", argv, ("family", fam, n), 1, s))
        # 0..n extra edges, as an evenly spread fraction of n
        fractions = spread(rng, 0, graph_reps - 1, graph_reps)
        for n, f in zip(spread(rng, lo, hi, graph_reps), fractions):
            extra = round(n * (f + rng.random()) / graph_reps)
            edges = random_connected_graph(rng, n, extra)
            path = str(Path(workdir) / f"graph{len(files):03d}.txt")
            files[path] = edge_list_text(n, edges)
            argv = ("spectrum", "--graph-file", path, "--format", "json")
            ops.append(Op("graph", argv, ("graph", n, edges), 1, s))
    rng.shuffle(ops)
    return Pass(ops, files)


def _even(n, lo, hi):
    if n % 2 == 0:
        return n
    return n + 1 if n < hi else n - 1


def interlace_pass(seed, workdir):
    rng = _rng("interlace", seed)
    ops = []
    for s, (lo, hi) in enumerate(zip(INTERLACE_EDGES, INTERLACE_EDGES[1:])):
        hi -= 1
        orders = iter(spread(rng, lo, hi, 8))
        for pair in ("pz", "wz", "pw", "cz"):
            for fmt in ("text", "json"):
                n = next(orders)
                n = _even(n, lo, hi) if pair == "cz" else n
                argv = ("dist", "--pair", pair, "--n", str(n),
                        "--mode", "both", "--format", fmt)
                ops.append(Op("dist", argv, ("dist", pair, n, fmt), 1, s))
        starts = iter(spread(rng, lo, hi, 4))
        for pair in ("pz", "wz", "cz"):
            a = next(starts)
            b = a + INTERLACE_BLOCK - 1
            orders = [n for n in range(max(a, PAIR_MIN[pair]), b + 1)
                      if pair != "cz" or n % 2 == 0]
            argv = ("verify", "--check", "interlacing", "--pair", pair, "--n", f"{a}..{b}")
            ops.append(Op("interlacing", argv, ("interlacing", pair, a, b), len(orders), s))
        a = next(starts)
        b = a + INTERLACE_BLOCK - 1
        argv = ("verify", "--check", "additivity", "--n", f"{a}..{b}")
        items = b + 1 - max(a, 6)
        ops.append(Op("additivity", argv, ("additivity", a, b), items, s))
    rng.shuffle(ops)
    return Pass(ops)


def ladder(pair, residue):
    """Doubling orders inside the class: the strata edges of the scan workload."""
    if pair == "cz":
        rungs = [PAIR_MIN[pair]]
        while rungs[-1] <= SCAN_LADDER_RANGE[1]:
            rungs.append(2 * rungs[-1])
        return rungs
    n = PAIR_MIN[pair]
    n += (residue - n) % 4
    rungs = [n]
    while rungs[-1] <= SCAN_LADDER_RANGE[1]:
        nxt = 2 * rungs[-1]
        rungs.append(nxt + (residue - nxt) % 4)
    return rungs


def scan_strata(pair, residue):
    lo, hi = SCAN_LADDER_RANGE
    rungs = ladder(pair, residue)
    return [(g, nxt - 1) for g, nxt in zip(rungs, rungs[1:]) if lo <= g < hi]


def scan_pass(seed, workdir):
    rng = _rng("scan", seed)
    ops = []
    for pair, residue in SCAN_CLASSES:
        for s, (lo, hi) in enumerate(scan_strata(pair, residue)):
            for fmt in ("csv", "json"):
                n_max = rng.randint(lo, hi)
                argv = ["scan", "--pair", pair]
                if residue is not None:
                    argv += ["--residue", str(residue)]
                argv += ["--n-max", str(n_max), "--format", fmt]
                out = None
                if fmt == "csv":
                    out = str(Path(workdir) / f"scan{len(ops):03d}.csv")
                    argv += ["--out", out]
                key = ("scan", pair, residue, n_max, fmt)
                # items are the grid's sample count, known only from output
                ops.append(Op("scan", tuple(argv), key, 0, s, out))
    rng.shuffle(ops)
    return Pass(ops)


def build(workload, seed, workdir):
    """The seeded pass of a workload; files are to be written by the caller."""
    builders = {"oracle": oracle_pass, "interlace": interlace_pass, "scan": scan_pass}
    return builders[workload](seed, workdir)
