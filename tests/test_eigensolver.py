import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from specdist import (
    FamilySpec,
    adjacency_matrix,
    build_family,
    closed_spectrum,
    eigensolver,
    spectrum_deviation,
)
from specdist.eigensolver import symmetric_eigenvalues
from specdist.errors import ConvergenceError, NonSymmetricMatrixError
from specdist.graphs import MIN_ORDER


@pytest.fixture(params=[eigensolver.ACTIVE_BACKEND])
def backend(request):
    """The kernel a test runs on, named in its id; there is one."""
    return request.param


def _random_connected_adjacency(rng, n, extra):
    """Adjacency matrix of a randomly labelled random tree on n vertices plus
    up to ``extra`` more edges, as the benchmark builds its random graphs."""
    labels = list(range(n))
    rng.shuffle(labels)
    m = np.zeros((n, n))
    for v in range(1, n):
        a, b = labels[rng.randrange(v)], labels[v]
        m[a, b] = m[b, a] = 1.0
    for _ in range(min(extra, n * (n - 1) // 2 - (n - 1))):
        a, b = rng.choice(np.argwhere(np.triu(m == 0, 1)).tolist())
        m[a, b] = m[b, a] = 1.0
    return m


def _family_matrices(lo, hi):
    for fam, low in MIN_ORDER.items():
        for n in range(max(lo, low), hi + 1):
            spec = FamilySpec(fam, n)
            yield spec, adjacency_matrix(build_family(spec))


def _kernel_run(m, max_sweeps=None):
    """(converged, sweeps) of the kernel on a copy of m, and the rotated copy."""
    a = np.array(m, dtype=np.float64)
    if max_sweeps is None:
        max_sweeps = eigensolver.SWEEP_BUDGET
    result = eigensolver.jacobi_sweeps(a, max_sweeps, eigensolver.TOL_PER_DIM * a.shape[0])
    return result, a


def test_compiled_kernel_is_available():
    # the first numeric use builds or imports the extension; there is no fallback
    assert eigensolver.ACTIVE_BACKEND == "compiled"
    assert eigensolver._kernel().__module__ == "specdist._jacobi"


@pytest.mark.usefixtures("backend")
class TestJacobi:
    def test_p2(self):
        values = np.sort(symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_k3(self):
        m = np.ones((3, 3)) - np.eye(3)
        values = np.sort(symmetric_eigenvalues(m))
        assert np.allclose(values, [-1.0, -1.0, 2.0], atol=1e-12)

    def test_z5_matches_cosine_values(self):
        m = adjacency_matrix(build_family(FamilySpec("z", 5)))
        values = np.sort(symmetric_eigenvalues(m))[::-1]
        expected = [
            2 * math.cos(math.pi / 8),
            2 * math.cos(3 * math.pi / 8),
            0.0,
            -2 * math.cos(3 * math.pi / 8),
            -2 * math.cos(math.pi / 8),
        ]
        assert np.allclose(values, expected, atol=1e-12)
        assert abs(values[0] - 1.84776) < 1e-5
        assert abs(values[1] - 0.76537) < 1e-5

    def test_diagonal_matrix_unchanged(self):
        values = symmetric_eigenvalues(np.diag([3.0, -1.0, 0.5]))
        assert np.allclose(np.sort(values), [-1.0, 0.5, 3.0], atol=0)

    def test_single_entry(self):
        assert np.array_equal(symmetric_eigenvalues([[4.0]]), [4.0])

    def test_empty_matrix(self):
        # no sweep runs at n = 0, as at n = 1, whatever the budget
        for max_sweeps in (0, 1, eigensolver.SWEEP_BUDGET):
            assert _kernel_run(np.zeros((0, 0)), max_sweeps)[0] == (True, 0)
        values = symmetric_eigenvalues(np.zeros((0, 0)))
        assert values.shape == (0,) and values.dtype == np.float64
        assert np.array_equal(values, np.linalg.eigvalsh(np.zeros((0, 0))))

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricMatrixError):
            symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(NonSymmetricMatrixError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_sweep_budget_exhaustion(self, monkeypatch):
        m = adjacency_matrix(build_family(FamilySpec("p", 30)))
        assert symmetric_eigenvalues(m).shape == (30,)
        # the budget is read when the solver is called
        monkeypatch.setattr(eigensolver, "SWEEP_BUDGET", 1)
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(m)


# The test_pure_* tests first checked the numpy fallback, deleted since; they
# keep their names and check the same behaviour on the compiled kernel.


def test_pure_sweeps_keep_matrix_exactly_symmetric():
    # the sweeps rotate the upper triangle only; the kernel copies it onto the
    # lower one before it returns, also when the budget runs out first
    rng = random.Random(11)
    matrices = [m for _, m in _family_matrices(2, 40)]
    matrices += [_random_connected_adjacency(rng, n, rng.randrange(2 * n)) for n in range(2, 41)]
    for m in matrices:
        (converged, _), a = _kernel_run(m)
        assert converged
        assert np.array_equal(a, a.T), f"n={m.shape[0]}"
        for max_sweeps in (1, 2):
            _, a = _kernel_run(m, max_sweeps)
            assert np.array_equal(a, a.T), (m.shape[0], max_sweeps)


def _round_robin(n):
    """The kernel's sweep order for n indices: m - 1 rounds of disjoint pairs
    (p, q), p < q, with m = n + n % 2.  Round r pairs ring[j] with
    ring[m - 1 - j], where ring starts as 0..m-1 and ring[1:] turns one place
    per round; the pair of odd n's idle label n (the bye) is left out."""
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = (sorted((ring[j], ring[m - 1 - j])) for j in range(m // 2))
        rounds.append([(p, q) for p, q in pairs if q < n])
        ring[1:] = ring[-1:] + ring[1:-1]
    return rounds


@pytest.mark.parametrize("n", range(2, 34))
def test_round_robin_meets_every_pair_once_per_sweep(n):
    rounds = _round_robin(n)
    assert len(rounds) == n + n % 2 - 1
    for pairs in rounds:
        labels = [i for pair in pairs for i in pair]
        assert len(labels) == len(set(labels)) == 2 * (n // 2), pairs
    met = sorted(pair for pairs in rounds for pair in pairs)
    assert met == [(p, q) for p in range(n) for q in range(p + 1, n)]


def _full_storage_model(m, max_sweeps, tol):
    """(converged, sweeps) and the rotated matrix of cyclic Jacobi sweeps over
    the full storage, in pure Python: the kernel's formulas in its round-robin
    order, one rotation at a time, each writing a[i][p] and a[p][i] as one
    value.  The kernel pivots a whole round before it rotates; no rotation of
    a round writes another pair's pivot, so the bits are the same."""
    a = [[float(x) for x in row] for row in np.asarray(m, dtype=np.float64)]
    n = len(a)
    skip = 0.1 * tol / n

    def off_norm():
        off = 0.0  # summed in order, as the kernel does; sum() may compensate
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * a[p][q] * a[p][q]
        return math.sqrt(off)

    converged, used = True, 0
    if n > 1:
        for used in range(max_sweeps):
            if off_norm() < tol:
                break
            for p, q in (pair for pairs in _round_robin(n) for pair in pairs):
                apq, app, aqq = a[p][q], a[p][p], a[q][q]
                if abs(apq) <= skip:
                    continue
                theta = (aqq - app) / (2.0 * apq)
                root = math.sqrt(theta * theta + 1.0)
                t = 1.0 / (theta + root) if theta >= 0.0 else -1.0 / (-theta + root)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[p][p], a[q][q] = app - t * apq, aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for i in (i for i in range(n) if i != p and i != q):
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = c * aip - s * aiq
                    a[i][q] = a[q][i] = s * aip + c * aiq
        else:
            converged, used = off_norm() < tol, max_sweeps
    return (converged, used), np.array(a, dtype=np.float64)


def test_kernel_matches_the_full_storage_model_bit_for_bit():
    # Python floats are IEEE doubles and math.sqrt rounds correctly, so the
    # model's bits equal the kernel's as long as the compiler fuses no
    # multiply-add: true of gcc on x86-64 at sysconfig's flags (no -march, so
    # no FMA instructions)
    rng = np.random.default_rng(19)
    # a negated adjacency matrix's first pivots have theta = -0.0
    matrices = [sign * m for _, m in _family_matrices(1, 16) for sign in (1.0, -1.0)]
    # at odd n (5, 9, 7, 15) one index idles in every round
    for n in (2, 5, 9, 16, 7, 15):
        x = rng.standard_normal((n, n))
        matrices.append(x + x.T)
    for m in matrices:
        for max_sweeps in (0, 1, 2, 100):
            tol = eigensolver.TOL_PER_DIM * len(m)
            got, a = _kernel_run(m, max_sweeps)
            want, b = _full_storage_model(m, max_sweeps, tol)
            assert got == want, (len(m), max_sweeps)
            assert a.tobytes() == b.tobytes(), (len(m), max_sweeps)


# (converged, sweeps) of the compiled kernel at n = 2..48 from each family's
# least order; every run converged
_KERNEL_SWEEPS = {
    "p": [1, 3, 2, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 6, 6,
          7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 8, 8, 7, 7, 8, 8, 7],
    "c": [1, 1, 4, 4, 4, 5, 5, 6, 6, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6, 6,
          7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 8, 7, 7, 7, 7, 7],
    "z": [1, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7,
          7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8],
    "w": [4, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 6, 7, 7, 7, 7,
          7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 8, 7, 7, 7, 7, 7, 8],
}
# the same for _random_connected_adjacency(rng, n, rng.randrange(2 * n)),
# n = 2..48 in turn, with rng = random.Random(13)
_KERNEL_RANDOM_SWEEPS = [
    1, 1, 4, 1, 1, 5, 5, 5, 5, 5, 6, 6, 6, 6, 5, 6, 6, 6, 6, 7, 6, 7, 6, 6,
    7, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 7, 7, 8, 7, 7, 7, 7, 7,
]


def test_pure_sweep_counts_unchanged():
    got = {}
    for spec, m in _family_matrices(2, 48):
        got.setdefault(spec.family.value, []).append(_kernel_run(m)[0])
    assert got == {
        family: [(True, sweeps) for sweeps in counts]
        for family, counts in _KERNEL_SWEEPS.items()
    }
    rng = random.Random(13)
    random_runs = [
        _kernel_run(_random_connected_adjacency(rng, n, rng.randrange(2 * n)))[0]
        for n in range(2, 49)
    ]
    assert random_runs == [(True, sweeps) for sweeps in _KERNEL_RANDOM_SWEEPS]


def test_kernel_has_no_cap_on_the_order():
    # the round's scratch arrays are allocated per call: at n = 2049 the one
    # coupling a[0][2048] is rotated away in the first sweep
    n = 2049
    m = np.zeros((n, n))
    m[0, n - 1] = m[n - 1, 0] = 1.0
    (converged, sweeps), a = _kernel_run(m)
    assert converged and sweeps <= 2
    assert np.array_equal(np.sort(a.diagonal()), [-1.0] + [0.0] * (n - 2) + [1.0])
    assert np.count_nonzero(a) == 2


def test_pure_backend_returns_input_order():
    # the eigenvalues are left on the diagonal; no permutation may reach the
    # unsorted result
    d = [3.0, -1.0, 0.5, 2.0, 7.0]
    assert np.array_equal(symmetric_eigenvalues(np.diag(d)), d)
    # weak couplings make the sweeps run; the entries are distinct integers,
    # so each eigenvalue lies within the coupling's norm of its own entry (Weyl)
    rng = random.Random(3)
    for n in range(2, 13):
        d = np.array(rng.sample(range(-3 * n, 3 * n), n), dtype=np.float64)
        coupling = 0.01 * _random_connected_adjacency(rng, n, n)
        values = symmetric_eigenvalues(np.diag(d) + coupling)
        assert np.max(np.abs(values - d)) <= np.linalg.norm(coupling, 2), n


_BUDGET_MATRICES = [
    adjacency_matrix(build_family(FamilySpec("p", 30))),
    [[0.0, 1.0], [1.0, 0.0]],
    np.diag([3.0, -1.0, 0.5, 2.0, 7.0]),
    [[4.0]],
]


@pytest.mark.parametrize(
    "max_sweeps,expected",
    [
        (0, [(False, 0), (False, 0), (True, 0), (True, 0)]),
        (1, [(False, 1), (True, 1), (True, 0), (True, 0)]),
    ],
)
def test_pure_sweep_budget(max_sweeps, expected, monkeypatch):
    monkeypatch.setattr(eigensolver, "SWEEP_BUDGET", max_sweeps)
    for m, want in zip(_BUDGET_MATRICES, expected):
        assert _kernel_run(m, max_sweeps)[0] == want
        if want[0]:
            assert symmetric_eigenvalues(m).shape == (len(m),)
        else:
            with pytest.raises(ConvergenceError):
                symmetric_eigenvalues(m)


def test_pure_backend_matches_closed_spectra():
    # criterion 4's bounds for every family at n <= 60
    worst_dev = worst_trace = worst_sumsq = 0.0
    for spec, m in _family_matrices(1, 60):
        numeric = np.sort(symmetric_eigenvalues(m))[::-1]
        worst_dev = max(worst_dev, spectrum_deviation(closed_spectrum(spec), numeric))
        worst_trace = max(worst_trace, abs(float(np.sum(numeric))))
        # the sum of squares is the adjacency matrix's sum, twice the edge count
        worst_sumsq = max(worst_sumsq, abs(float(np.sum(numeric**2)) - float(np.sum(m))))
    assert worst_dev < 1e-8 and worst_trace < 1e-8 and worst_sumsq < 1e-8


def _read_only(m):
    m.setflags(write=False)
    return m


@pytest.mark.parametrize(
    "a",
    [
        np.eye(3, dtype=np.float32),
        np.eye(6)[::2, ::2],
        _read_only(np.eye(3)),
        np.zeros((2, 3)),
    ],
    ids=["float32", "non-contiguous", "read-only", "non-square"],
)
def test_compiled_kernel_rejects_bad_buffers(a):
    jacobi_sweeps = eigensolver._kernel()
    with pytest.raises(ValueError):
        jacobi_sweeps(a, 10, 1e-12)


def test_kernel_takes_positional_arguments_only():
    jacobi_sweeps = eigensolver._kernel()
    assert jacobi_sweeps.__text_signature__ == "($module, a, max_sweeps, tol, /)"
    with pytest.raises(TypeError, match="takes no keyword arguments"):
        jacobi_sweeps(np.eye(2), 10, tol=1e-12)


# numeric commands need the kernel; the closed-form ones must run without it
NUMERIC_COMMANDS = [
    ["spectrum", "--family", "z", "--n", "9", "--source", "both"],
    ["spectrum", "--graph-file", "p3.txt"],
    ["verify", "--check", "oracle", "--n", "4..6"],
]
CLOSED_COMMANDS = [
    ["dist", "--pair", "pz", "--n", "10"],
    ["scan", "--pair", "pz", "--residue", "1", "--n-max", "10000"],
    ["verify", "--check", "interlacing", "--pair", "pz", "--n", "4..20"],
]


def _package_copy(tmp_path):
    """A copy of the specdist sources under tmp_path, with no built kernel."""
    package = tmp_path / "specdist"
    shutil.copytree(
        Path(eigensolver.__file__).parent, package,
        ignore=shutil.ignore_patterns("_jacobi*.so", "*.tmp", "__pycache__"),
    )
    (tmp_path / "p3.txt").write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
    return package


def _cli(tmp_path, argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "specdist.cli", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(tmp_path), **env},
    )


def _kernel_files(package):
    return sorted(p.name for p in package.iterdir() if p.name.startswith("_jacobi"))


def test_first_numeric_command_builds_the_kernel_once(tmp_path):
    package = _package_copy(tmp_path)
    kernel = package / ("_jacobi" + sysconfig.get_config_var("EXT_SUFFIX"))
    first = _cli(tmp_path, NUMERIC_COMMANDS[0])
    assert first.returncode == 0, first.stderr
    assert first.stdout.splitlines()[-1].startswith("deviation ")
    assert _kernel_files(package) == sorted(["_jacobi.c", kernel.name])
    built = kernel.stat().st_mtime_ns
    # an up-to-date kernel is imported, not rebuilt
    assert _cli(tmp_path, NUMERIC_COMMANDS[0]).stdout == first.stdout
    assert kernel.stat().st_mtime_ns == built
    # a kernel older than its source is rebuilt
    os.utime(package / "_jacobi.c")
    assert _cli(tmp_path, NUMERIC_COMMANDS[0]).stdout == first.stdout
    assert kernel.stat().st_mtime_ns > built
    assert _kernel_files(package) == sorted(["_jacobi.c", kernel.name])


def test_without_a_compiler_numeric_commands_exit_2(tmp_path):
    package = _package_copy(tmp_path)
    for argv in NUMERIC_COMMANDS:
        proc = _cli(tmp_path, argv, CC="false")
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cannot build the Jacobi kernel "), line
        assert "false exited with status 1" in line and "pip install -e ." in line
    # no kernel and no temporary file is left behind
    assert _kernel_files(package) == ["_jacobi.c"]
    for argv in CLOSED_COMMANDS:
        proc = _cli(tmp_path, argv, CC="false")
        assert proc.returncode == 0, (argv, proc.stderr)
    assert _kernel_files(package) == ["_jacobi.c"]


def test_a_failed_build_leaves_no_partial_kernel(tmp_path):
    package = _package_copy(tmp_path)
    fake_cc = tmp_path / "fake_cc.py"
    fake_cc.write_text(
        "import sys\n"
        "open(sys.argv[sys.argv.index('-o') + 1], 'w').close()\n"
        "print('fake_cc: half-written output', file=sys.stderr)\n"
        "sys.exit(3)\n",
        encoding="utf-8",
    )
    cc = f"{shlex.quote(sys.executable)} {shlex.quote(str(fake_cc))}"
    proc = _cli(tmp_path, NUMERIC_COMMANDS[0], CC=cc)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert "exited with status 3: fake_cc: half-written output;" in line
    assert _kernel_files(package) == ["_jacobi.c"]


def test_compiler_flags_that_cannot_be_split_exit_2(tmp_path):
    package = _package_copy(tmp_path)
    argv = ["spectrum", "--family", "p", "--n", "4", "--source", "numeric"]
    proc = _cli(tmp_path, argv, CC='gcc "x')
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot build the Jacobi kernel "), line
    assert ": No closing quotation; numeric spectra need a C compiler" in line
    assert _kernel_files(package) == ["_jacobi.c"]
