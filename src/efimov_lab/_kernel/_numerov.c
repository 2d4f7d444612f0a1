/* Compiled twin of efimov_lab._kernel._pure.march.
 *
 * Same arithmetic in the same order as the pure kernel, so both give
 * bit-identical samples and node counts; past |g| = 1e250 both divide
 * the running pair by |g|, so samples keep the scale of their segment.
 * It must be built without floating-point contraction (setup.py passes
 * -ffp-contract=off): a fused multiply-add rounds once where the pure
 * kernel rounds twice.
 * The buffers arrive through the buffer protocol; the caller,
 * efimov_lab._kernel.integrate_numerov, makes them contiguous float64. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define RESCALE_THRESHOLD 1e250

static PyObject *march(PyObject *self, PyObject *args)
{
    Py_buffer wb, gb;
    double h, g0, dg0;
    if (!PyArg_ParseTuple(args, "y*dddw*", &wb, &h, &g0, &dg0, &gb))
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

    double gm = g0;
    /* fourth-order start: Taylor with dw approximated one-sidedly */
    double dw = (w[1] - w[0]) / h;
    double gi = gm + h * dg0 + 0.5 * h2 * w[0] * gm
        + (h2 * h / 6.0) * (w[0] * dg0 + dw * gm);
    g[0] = gm;
    g[1] = gi;

    long nodes = 0;
    int sign_prev = gm != 0.0 ? (gm > 0.0 ? 1 : -1) : 0;
    if (gi != 0.0) {
        int s = gi > 0.0 ? 1 : -1;
        if (sign_prev != 0 && s != sign_prev)
            nodes++;
        sign_prev = s;
    }

    double cm = 1.0 - c12 * w[0], ci = 1.0 - c12 * w[1];
    for (Py_ssize_t i = 1; i < n - 1; i++) {
        double cp = 1.0 - c12 * w[i + 1];
        double gp = ((12.0 - 10.0 * ci) * gi - cm * gm) / cp;
        if (gp > RESCALE_THRESHOLD || gp < -RESCALE_THRESHOLD) {
            double scale = fabs(gp);
            gi /= scale;
            gp /= scale;
        }
        g[i + 1] = gp;
        if (gp != 0.0) {
            int s = gp > 0.0 ? 1 : -1;
            if (sign_prev != 0 && s != sign_prev)
                nodes++;
            sign_prev = s;
        }
        gm = gi;
        gi = gp;
        cm = ci;
        ci = cp;
    }
    result = PyLong_FromLong(nodes);
done:
    PyBuffer_Release(&wb);
    PyBuffer_Release(&gb);
    return result;
}

static PyMethodDef methods[] = {
    {"march", march, METH_VARARGS,
     "march(w, h, g0, dg0, g) -> nodes; see _pure.march."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_numerov", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__numerov(void) { return PyModule_Create(&module); }
