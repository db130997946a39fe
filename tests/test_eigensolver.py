import math
import random

import numpy as np
import pytest

from specdist import (
    FamilySpec,
    _jacobi_py,
    adjacency_matrix,
    build_family,
    closed_spectrum,
    eigensolver,
    spectrum_deviation,
)
from specdist.eigensolver import symmetric_eigenvalues
from specdist.errors import ConvergenceError, NonSymmetricMatrixError
from specdist.graphs import MIN_ORDER

# each kernel of this build by backend name; a test picks one by rebinding
# eigensolver.jacobi_sweeps, which symmetric_eigenvalues reads at each call
KERNELS = {"pure": _jacobi_py.jacobi_sweeps}
if eigensolver._compiled_sweeps is not None:
    KERNELS = {"compiled": eigensolver._compiled_sweeps, **KERNELS}
BACKENDS = list(KERNELS)


def _bind(monkeypatch, backend):
    monkeypatch.setattr(eigensolver, "jacobi_sweeps", KERNELS[backend])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    _bind(monkeypatch, request.param)


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


def test_compiled_kernel_is_available():
    # the build in this repo ships the extension; the pure path is a fallback
    assert "compiled" in BACKENDS


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


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel unavailable")
def test_backends_agree(monkeypatch):
    # odd orders leave one index idle per round of the fallback's ordering
    families = [
        ("p", 25), ("c", 24), ("z", 25), ("w", 25),
        ("p", 2), ("p", 3), ("c", 3), ("c", 31), ("z", 31), ("w", 33), ("z", 40),
    ]
    matrices = [adjacency_matrix(build_family(FamilySpec(f, n))) for f, n in families]
    rng = random.Random(7)
    matrices += [_random_connected_adjacency(rng, 29, 20), _random_connected_adjacency(rng, 32, 45)]
    for m in matrices:
        _bind(monkeypatch, "compiled")
        compiled = np.sort(symmetric_eigenvalues(m))
        _bind(monkeypatch, "pure")
        pure = np.sort(symmetric_eigenvalues(m))
        assert np.max(np.abs(compiled - pure)) < 1e-10


def test_pure_sweeps_keep_matrix_exactly_symmetric():
    # the fallback rotates each round from both sides; the two must agree
    rng = random.Random(11)
    matrices = [m for _, m in _family_matrices(2, 40)]
    matrices += [_random_connected_adjacency(rng, n, rng.randrange(2 * n)) for n in range(2, 41)]
    for m in matrices:
        n = m.shape[0]
        a = np.array(m, dtype=np.float64)
        converged, _ = _jacobi_py.jacobi_sweeps(
            a, eigensolver.SWEEP_BUDGET, eigensolver.TOL_PER_DIM * n
        )
        assert converged
        assert np.array_equal(a, a.T), f"n={n}"


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 33])
def test_pure_schedule_meets_every_pair_once_per_sweep(n):
    orders, moves = _jacobi_py._schedule(n)
    m = n + n % 2
    assert orders.shape == moves.shape == (m - 1, m)
    # round 0 is the label order, and the moves cycle back to it
    assert np.array_equal(orders[0], np.arange(m))
    for r, move in enumerate(moves):
        assert np.array_equal(orders[r][move], orders[(r + 1) % (m - 1)])
    pairs = orders.reshape(m - 1, m // 2, 2)
    assert np.all(pairs[..., 0] < pairs[..., 1])
    met = sorted(map(tuple, pairs.reshape(-1, 2).tolist()))
    assert met == [(p, q) for p in range(m) for q in range(p + 1, m)]


# (converged, sweeps) of the fallback when it still kept the matrix in label
# order, at n = 2..48 from each family's least order: storing the working copy
# in pair order must not move a single sweep count.  Every run converged.
_LABEL_ORDER_SWEEPS = {
    "p": [1, 3, 1, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
          6, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7],
    "c": [1, 1, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
          7, 6, 7, 7, 7, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7],
    "z": [1, 4, 4, 5, 5, 5, 5, 5, 6, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
          7, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8],
    "w": [4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6, 6, 6, 6, 7, 7, 7, 6,
          7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 8, 7, 7, 7, 8],
}
# the same for _random_connected_adjacency(rng, n, rng.randrange(2 * n)),
# n = 2..48 in turn, with rng = random.Random(13)
_LABEL_ORDER_RANDOM_SWEEPS = [
    1, 1, 3, 1, 1, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6, 6, 7, 7,
    7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 7, 7, 7, 7,
]


def _fallback_run(m, max_sweeps=None):
    a = np.array(m, dtype=np.float64)
    if max_sweeps is None:
        max_sweeps = eigensolver.SWEEP_BUDGET
    return _jacobi_py.jacobi_sweeps(a, max_sweeps, eigensolver.TOL_PER_DIM * a.shape[0])


def test_pure_sweep_counts_unchanged():
    got = {}
    for spec, m in _family_matrices(2, 48):
        got.setdefault(spec.family.value, []).append(_fallback_run(m))
    assert got == {
        family: [(True, sweeps) for sweeps in counts]
        for family, counts in _LABEL_ORDER_SWEEPS.items()
    }
    rng = random.Random(13)
    random_runs = [
        _fallback_run(_random_connected_adjacency(rng, n, rng.randrange(2 * n)))
        for n in range(2, 49)
    ]
    assert random_runs == [(True, sweeps) for sweeps in _LABEL_ORDER_RANDOM_SWEEPS]


def test_pure_backend_returns_input_order(monkeypatch):
    _bind(monkeypatch, "pure")
    # the working copy is stored in each round's pair order; no permutation
    # may leak into the unsorted result
    d = [3.0, -1.0, 0.5, 2.0, 7.0]
    assert np.array_equal(symmetric_eigenvalues(np.diag(d)), d)
    # weak couplings make the rounds run; the entries are distinct integers,
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
    _bind(monkeypatch, "pure")
    monkeypatch.setattr(eigensolver, "SWEEP_BUDGET", max_sweeps)
    for m, want in zip(_BUDGET_MATRICES, expected):
        assert _fallback_run(m, max_sweeps) == want
        if want[0]:
            assert symmetric_eigenvalues(m).shape == (len(m),)
        else:
            with pytest.raises(ConvergenceError):
                symmetric_eigenvalues(m)


def test_pure_backend_matches_closed_spectra(monkeypatch):
    _bind(monkeypatch, "pure")
    # criterion 4's bounds, on the fallback, for every family at n <= 60
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


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel unavailable")
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
    from specdist._jacobi import jacobi_sweeps

    with pytest.raises(ValueError):
        jacobi_sweeps(a, 10, 1e-12)

