import math

import numpy as np
import pytest

from specdist import FamilySpec, adjacency_matrix, build_family
from specdist.eigensolver import available_backends, symmetric_eigenvalues
from specdist.errors import ConvergenceError, NonSymmetricMatrixError

BACKENDS = available_backends()


def test_compiled_kernel_is_available():
    # the build in this repo ships the extension; the pure path is a fallback
    assert "compiled" in BACKENDS


@pytest.mark.parametrize("backend", BACKENDS)
class TestJacobi:
    def test_p2(self, backend):
        values = np.sort(symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]], backend=backend))
        assert np.allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_k3(self, backend):
        m = np.ones((3, 3)) - np.eye(3)
        values = np.sort(symmetric_eigenvalues(m, backend=backend))
        assert np.allclose(values, [-1.0, -1.0, 2.0], atol=1e-12)

    def test_z5_matches_cosine_values(self, backend):
        m = adjacency_matrix(build_family(FamilySpec("z", 5)))
        values = np.sort(symmetric_eigenvalues(m, backend=backend))[::-1]
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

    def test_diagonal_matrix_unchanged(self, backend):
        values = symmetric_eigenvalues(np.diag([3.0, -1.0, 0.5]), backend=backend)
        assert np.allclose(np.sort(values), [-1.0, 0.5, 3.0], atol=0)

    def test_single_entry(self, backend):
        assert np.array_equal(symmetric_eigenvalues([[4.0]], backend=backend), [4.0])

    def test_rejects_non_symmetric(self, backend):
        with pytest.raises(NonSymmetricMatrixError):
            symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]], backend=backend)

    def test_rejects_non_square(self, backend):
        with pytest.raises(NonSymmetricMatrixError):
            symmetric_eigenvalues(np.zeros((2, 3)), backend=backend)

    def test_sweep_budget_exhaustion(self, backend):
        m = adjacency_matrix(build_family(FamilySpec("p", 30)))
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(m, max_sweeps=1, backend=backend)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel unavailable")
def test_backends_agree():
    for fam, n in [("p", 25), ("c", 24), ("z", 25), ("w", 25)]:
        m = adjacency_matrix(build_family(FamilySpec(fam, n)))
        compiled = np.sort(symmetric_eigenvalues(m, backend="compiled"))
        pure = np.sort(symmetric_eigenvalues(m, backend="pure"))
        assert np.max(np.abs(compiled - pure)) < 1e-10


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


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0]], backend="lapack")
