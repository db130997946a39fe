/* Cyclic Jacobi sweeps for dense symmetric matrices (compiled kernel).

   Plain CPython extension: the matrix arrives through the buffer protocol,
   no numpy headers are needed.  eigensolver.py builds it from this file at
   the first numeric call when the built module is missing or older.

   The kernel reads only the upper triangle a[i][j], i < j, and the diagonal,
   as Numerical Recipes' jacobi does: every rotation reads and writes
   a[min(i,j)][max(i,j)] alone, and mirror() copies the upper triangle onto
   the lower one before jacobi_sweeps returns.  For an exactly symmetric
   input this gives bit for bit the matrix that rotating the full storage
   gives, since each element gets the same update from the same operands.
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

/* Start the rotation that zeroes a[p][q]: apply it to a[p][p], a[q][q] and
   a[p][q], and return its cosine and sine.  t is 1/(theta + r) for
   theta >= 0 and -1/(-theta + r) otherwise, with r = sqrt(theta^2 + 1).
   copysign(1, u)/(|u| + r) is that value to the bit for every theta but
   NaN, as negation and rounded division are exact in sign, and u = theta +
   0.0 puts -0.0 with theta >= 0.  It has no branch on the sign of theta,
   which the processor cannot predict. */
static inline void
pivot(double *a, Py_ssize_t n, Py_ssize_t p, Py_ssize_t q, double *c, double *s)
{
    double apq = a[p * n + q], app = a[p * n + p], aqq = a[q * n + q];
    double theta = (aqq - app) / (2.0 * apq);
    double u = theta + 0.0;
    double t = copysign(1.0, u) / (fabs(u) + sqrt(theta * theta + 1.0));
    *c = 1.0 / sqrt(t * t + 1.0);
    *s = t * *c;
    a[p * n + p] = app - t * apq;
    a[q * n + q] = aqq + t * apq;
    a[p * n + q] = 0.0;
}

/* One cyclic sweep: rotate away every a[p][q], p < q, above skip, in row
   order.  Only the upper triangle is read and written: element (i, p) of
   the symmetric matrix lives at a[i][p] for i < p and at a[p][i] for i > p,
   and likewise for q, so the rotation of row and column i runs in three
   loops: i < p, p < i < q and q < i.  The third runs first, and stops at the
   row's next pair (p, next) to rotate: a[p][next] is then final, and the
   next pivot is taken before the rest of this rotation, so that its
   divisions and square roots overlap that rest.  Every element still gets
   the same updates, with the same operands, in the same order. */
static void
sweep(double *a, Py_ssize_t n, double skip)
{
    for (Py_ssize_t p = 0; p < n - 1; p++) {
        double *ap = a + p * n;
        Py_ssize_t q = p + 1;
        while (q < n && fabs(ap[q]) <= skip)
            q++;
        double c, s;
        if (q < n)
            pivot(a, n, p, q, &c, &s);
        while (q < n) {
            double *aq = a + q * n;
            Py_ssize_t next = q + 1;
            for (; next < n; next++) {
                double aip = ap[next], aiq = aq[next];
                ap[next] = c * aip - s * aiq;
                aq[next] = s * aip + c * aiq;
                if (!(fabs(ap[next]) <= skip))  /* (p, next) is rotated */
                    break;
            }
            double c_next = 0.0, s_next = 0.0;
            if (next < n)
                pivot(a, n, p, next, &c_next, &s_next);
            for (Py_ssize_t i = next + 1; i < n; i++) {
                double aip = ap[i], aiq = aq[i];
                ap[i] = c * aip - s * aiq;
                aq[i] = s * aip + c * aiq;
            }
            for (double *ai = a; ai < ap; ai += n) {
                double aip = ai[p], aiq = ai[q];
                ai[p] = c * aip - s * aiq;
                ai[q] = s * aip + c * aiq;
            }
            for (Py_ssize_t i = p + 1; i < q; i++) {
                double aip = ap[i], aiq = a[i * n + q];
                ap[i] = c * aip - s * aiq;
                a[i * n + q] = s * aip + c * aiq;
            }
            q = next;
            c = c_next;
            s = s_next;
        }
    }
}

/* Copy the upper triangle onto the lower one: a[q][p] = a[p][q], p < q. */
static void
mirror(double *a, Py_ssize_t n)
{
    for (Py_ssize_t p = 0; p < n - 1; p++)
        for (Py_ssize_t q = p + 1; q < n; q++)
            a[q * n + p] = a[p * n + q];
}

static PyObject *
jacobi_sweeps(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj;
    int max_sweeps;
    double tol;
    Py_buffer view;

    if (!PyArg_ParseTuple(args, "Oid:jacobi_sweeps", &obj, &max_sweeps, &tol))
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
    if (n > 1) {  /* n = 0 and n = 1 are diagonal already */
        for (; used < max_sweeps; used++) {
            if (off_norm(a, n) < tol)
                break;
            sweep(a, n, skip);
        }
        if (used >= max_sweeps) {  /* budget spent, or none given */
            converged = off_norm(a, n) < tol;
            used = max_sweeps;
        }
        mirror(a, n);
    }
    PyBuffer_Release(&view);
    return Py_BuildValue("Nn", PyBool_FromLong(converged), used);
}

static PyMethodDef methods[] = {
    {"jacobi_sweeps", jacobi_sweeps, METH_VARARGS,
     "jacobi_sweeps($module, a, max_sweeps, tol, /)\n--\n\n"
     "Rotate a in place until its off-diagonal Frobenius norm is below tol;\n"
     "return (converged, sweeps_used), eigenvalues on the diagonal of a.\n"
     "All three arguments are positional: a, a writable C-contiguous square\n"
     "float64 buffer; max_sweeps, an int sweep budget; tol, a float.\n"
     "Only the upper triangle of a is read; the lower one is overwritten\n"
     "with its mirror image."},
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
