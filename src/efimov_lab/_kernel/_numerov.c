/* Compiled twin of efimov_lab._kernel._pure.march.
 *
 * Marches on from the first two samples, which the caller,
 * efimov_lab._kernel.integrate_numerov, has written from a
 * fourth-order Taylor start.  The recurrence is Numerov's in Henrici's
 * summed form: with c = 1 - (h^2/12) w and y = c g, each step adds
 * h^2 w_i g_i to the difference d, d to y, and sets g = y / c_{i+1}.
 * Same arithmetic in the same order as the pure kernel, so both give
 * bit-identical samples and node counts; past |g| = 1e250 both divide
 * y, d and g by |g|, so samples keep the scale of their segment.  It
 * must be built without floating-point contraction (setup.py passes
 * -ffp-contract=off): a fused multiply-add rounds once where the pure
 * kernel rounds twice.
 * The buffers arrive through the buffer protocol; the caller makes them
 * contiguous float64. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define RESCALE_THRESHOLD 1e250

static PyObject *march(PyObject *self, PyObject *args)
{
    Py_buffer wb, gb;
    double h;
    if (!PyArg_ParseTuple(args, "y*dw*", &wb, &h, &gb))
        return NULL;
    Py_ssize_t n = wb.len / (Py_ssize_t)sizeof(double);
    PyObject *result = NULL;
    if (n < 2 || gb.len != wb.len) {
        PyErr_SetString(PyExc_ValueError,
                        "march needs two float64 buffers of one length >= 2");
        goto done;
    }
    const double *w = wb.buf;
    double *g = gb.buf;
    double h2 = h * h, c12 = h2 / 12.0;
    double gi = g[1];
    double y = (1.0 - c12 * w[1]) * gi;
    double d = y - (1.0 - c12 * w[0]) * g[0];

    long nodes = 0;
    int sign_prev = g[0] != 0.0 ? (g[0] > 0.0 ? 1 : -1) : 0;
    if (gi != 0.0) {
        int s = gi > 0.0 ? 1 : -1;
        if (sign_prev != 0 && s != sign_prev)
            nodes++;
        sign_prev = s;
    }

    for (Py_ssize_t i = 1; i < n - 1; i++) {
        d += h2 * w[i] * gi;
        y += d;
        gi = y / (1.0 - c12 * w[i + 1]);
        if (gi > RESCALE_THRESHOLD || gi < -RESCALE_THRESHOLD) {
            double scale = fabs(gi);
            y /= scale;
            d /= scale;
            gi /= scale;
        }
        g[i + 1] = gi;
        if (gi != 0.0) {
            int s = gi > 0.0 ? 1 : -1;
            if (sign_prev != 0 && s != sign_prev)
                nodes++;
            sign_prev = s;
        }
    }
    result = PyLong_FromLong(nodes);
done:
    PyBuffer_Release(&wb);
    PyBuffer_Release(&gb);
    return result;
}

static PyMethodDef methods[] = {
    {"march", march, METH_VARARGS,
     "march(w, h, g) -> nodes; see _pure.march."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_numerov", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__numerov(void) { return PyModule_Create(&module); }
