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

   A sweep visits the pairs in round-robin rounds of disjoint pairs
   (sweep()), so no pivot of a round waits on a rotation of that round.
   The rounds' scratch arrays are allocated at each call, so n has no cap.
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

/* Apply the rotation (c, s) of pair (p, q), p < q, whose pivot() has run:
   rotate rows and columns p and q of the rest of the matrix.  Element
   (i, p) of the symmetric matrix lives at a[i][p] for i < p and at a[p][i]
   for i > p, and likewise for q, so the rotation runs in three loops over
   the upper triangle: i < p, p < i < q and q < i. */
static inline void
rotate(double *a, Py_ssize_t n, Py_ssize_t p, Py_ssize_t q, double c, double s)
{
    double *ap = a + p * n, *aq = a + q * n;
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
    for (Py_ssize_t i = q + 1; i < n; i++) {
        double aip = ap[i], aiq = aq[i];
        ap[i] = c * aip - s * aiq;
        aq[i] = s * aip + c * aiq;
    }
}

/* Scratch space of the sweeps for m = n + n % 2 indices: the ring of m
   labels, and the pairs of one round with their cosines and sines. */
typedef struct {
    Py_ssize_t *ring, *p, *q;
    double *c, *s;
} scratch;

/* One cyclic sweep in the round-robin order of Brent & Luk (SIAM J. Sci.
   Stat. Comput. 6 (1985) 69-84): m - 1 rounds of m/2 disjoint pairs
   (ring[j], ring[m - 1 - j]).  ring[0] stays put and ring[1..m-1] turns one
   place per round, so every pair p < q meets once per sweep; for odd n the
   label n is an idle "bye", and its pair is not rotated.  The ring starts
   as 0, 1, ..., m - 1, so round 0 pairs 0 with m - 1, 1 with m - 2, and so
   on, and it is back there after each sweep.

   A pivot reads a[p][p], a[q][q] and a[p][q] alone, which no other pair of
   its round writes, so every pair above skip is pivoted first, and those
   divisions and square roots do not wait on each other or on a rotation.
   The rotations then run in pair order, so every element gets the same
   updates, with the same operands, in the same order, as when each pair's
   pivot and rotation run one after the other.  That plainer loop, which
   needs only the ring, was measured: no faster than row order, and slower
   than this one on every oracle benchmark run (BENCH_round_robin.json). */
static void
sweep(double *a, Py_ssize_t n, double skip, const scratch *w)
{
    Py_ssize_t m = n + n % 2, h = m / 2;
    Py_ssize_t *ring = w->ring;
    for (Py_ssize_t r = 0; r < m - 1; r++) {
        Py_ssize_t k = 0;
        for (Py_ssize_t j = 0; j < h; j++) {
            Py_ssize_t p = ring[j], q = ring[m - 1 - j];
            if (p > q) {
                Py_ssize_t t = p;
                p = q;
                q = t;
            }
            if (q == n || fabs(a[p * n + q]) <= skip)  /* the bye, or skipped */
                continue;
            pivot(a, n, p, q, &w->c[k], &w->s[k]);
            w->p[k] = p;
            w->q[k] = q;
            k++;
        }
        for (Py_ssize_t j = 0; j < k; j++)
            rotate(a, n, w->p[j], w->q[j], w->c[j], w->s[j]);
        Py_ssize_t last = ring[m - 1];
        memmove(ring + 2, ring + 1, (size_t)(m - 2) * sizeof *ring);
        ring[1] = last;
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
        Py_ssize_t m = n + n % 2, h = m / 2;
        scratch w;
        w.ring = PyMem_Malloc((size_t)(2 * m) * sizeof(Py_ssize_t));  /* ring, p, q */
        w.c = PyMem_Malloc((size_t)m * sizeof(double));  /* c, s */
        if (w.ring == NULL || w.c == NULL) {
            PyMem_Free(w.ring);
            PyMem_Free(w.c);
            PyBuffer_Release(&view);
            return PyErr_NoMemory();
        }
        w.p = w.ring + m;
        w.q = w.p + h;
        w.s = w.c + h;
        for (Py_ssize_t j = 0; j < m; j++)
            w.ring[j] = j;
        for (; used < max_sweeps; used++) {
            if (off_norm(a, n) < tol)
                break;
            sweep(a, n, skip, &w);
        }
        PyMem_Free(w.ring);
        PyMem_Free(w.c);
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
