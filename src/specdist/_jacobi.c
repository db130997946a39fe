/* Cyclic Jacobi sweeps for dense symmetric matrices (compiled kernel).

   Plain CPython extension: the matrix arrives through the buffer protocol,
   no numpy headers are needed.  eigensolver.py builds it from this file at
   the first numeric call when the built module is missing or older.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Off-diagonal Frobenius norm of the symmetric a, from its upper triangle. */
static double
off_norm(const double *a, Py_ssize_t n)
{
    double off = 0.0;
    for (Py_ssize_t p = 0; p < n - 1; p++)
        for (Py_ssize_t q = p + 1; q < n; q++)
            off += 2.0 * a[p * n + q] * a[p * n + q];
    return sqrt(off);
}

/* One cyclic sweep: rotate away every a[p][q], p < q, above skip. */
static void
sweep(double *a, Py_ssize_t n, double skip)
{
    for (Py_ssize_t p = 0; p < n - 1; p++) {
        for (Py_ssize_t q = p + 1; q < n; q++) {
            double apq = a[p * n + q];
            if (fabs(apq) <= skip)
                continue;
            double app = a[p * n + p], aqq = a[q * n + q];
            double theta = (aqq - app) / (2.0 * apq);
            double t = theta >= 0.0
                ? 1.0 / (theta + sqrt(theta * theta + 1.0))
                : -1.0 / (-theta + sqrt(theta * theta + 1.0));
            double c = 1.0 / sqrt(t * t + 1.0);
            double s = t * c;
            a[p * n + p] = app - t * apq;
            a[q * n + q] = aqq + t * apq;
            a[p * n + q] = 0.0;
            a[q * n + p] = 0.0;
            for (Py_ssize_t i = 0; i < n; i++) {
                if (i == p || i == q)
                    continue;
                double aip = a[i * n + p], aiq = a[i * n + q];
                a[i * n + p] = a[p * n + i] = c * aip - s * aiq;
                a[i * n + q] = a[q * n + i] = s * aip + c * aiq;
            }
        }
    }
}

static PyObject *
jacobi_sweeps(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "max_sweeps", "tol", NULL};
    PyObject *obj;
    int max_sweeps;
    double tol;
    Py_buffer view;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oid:jacobi_sweeps", kwlist,
                                     &obj, &max_sweeps, &tol))
        return NULL;
    if (PyObject_GetBuffer(obj, &view,
                           PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (view.format == NULL || strcmp(view.format, "d") != 0
        || view.itemsize != sizeof(double) || view.ndim != 2
        || view.shape[0] != view.shape[1] || !PyBuffer_IsContiguous(&view, 'C')) {
        PyErr_SetString(PyExc_ValueError,
                        "expected a square C-contiguous 2-D buffer of float64 (format \"d\")");
        PyBuffer_Release(&view);
        return NULL;
    }

    double *a = view.buf;
    Py_ssize_t n = view.shape[0];
    double skip = 0.1 * tol / (double)n;
    int converged = 1;
    Py_ssize_t used = 0;
    if (n != 1) {
        for (; used < max_sweeps; used++) {
            if (off_norm(a, n) < tol)
                break;
            sweep(a, n, skip);
        }
        if (used >= max_sweeps) {  /* budget spent, or none given */
            converged = off_norm(a, n) < tol;
            used = max_sweeps;
        }
    }
    PyBuffer_Release(&view);
    return Py_BuildValue("Nn", PyBool_FromLong(converged), used);
}

static PyMethodDef methods[] = {
    {"jacobi_sweeps", (PyCFunction)(void (*)(void))jacobi_sweeps,
     METH_VARARGS | METH_KEYWORDS,
     "jacobi_sweeps($module, /, a, max_sweeps, tol)\n--\n\n"
     "Rotate a in place until its off-diagonal Frobenius norm is below tol;\n"
     "return (converged, sweeps_used), eigenvalues on the diagonal of a."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "specdist._jacobi",
    .m_doc = "Cyclic Jacobi sweeps for dense symmetric matrices (compiled kernel).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__jacobi(void)
{
    return PyModule_Create(&module);
}
