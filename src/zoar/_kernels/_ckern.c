/* Compiled direction kernel, zoar._kernels._ckern.

   fill_directions(seeds, tag, out) writes one direction per uint64 seed
   into the C-contiguous float64 buffer `out` (len(seeds) rows of dim
   entries) with the bits of pure.materialize_block: SplitMix64 counter
   words, odd-numerator (0,1) doubles, Acklam's inverse normal CDF with
   the pinned fdlibm logarithm in the tails, and the sphere norm as a
   sequential sum.  Every float operation follows pure.py's order; build
   with -ffp-contract=off so that no a*b+c is fused into an FMA.

   Only the CPython API and the buffer protocol are used. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define TAG_SPHERE 1
#define TAG_COORDINATE 2

static const double TWO_NEG53 = 1.0 / 9007199254740992.0;
static const double SQRT_HALF = 0.70710678118654752440;

static const double LN2_HI = 6.93147180369123816490e-01;
static const double LN2_LO = 1.90821492927058770002e-10;
static const double LG1 = 6.666666666666735130e-01, LG2 = 3.999999999940941908e-01,
                    LG3 = 2.857142874366239149e-01, LG4 = 2.222219843214978396e-01,
                    LG5 = 1.818357216161805012e-01, LG6 = 1.531383769920937332e-01,
                    LG7 = 1.479819860511658591e-01;

static const double A[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                            -2.759285104469687e+02, 1.383577518672690e+02,
                            -3.066479806614716e+01, 2.506628277459239e+00};
static const double B[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                            -1.556989798598866e+02, 6.680131188771972e+01,
                            -1.328068155288572e+01};
static const double C[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                            -2.400758277161838e+00, -2.549732539343734e+00,
                            4.374664141464968e+00, 2.938163982698783e+00};
static const double D[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                            2.445134137142996e+00, 3.754408661907416e+00};
static const double P_LOW = 0.02425;

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static double log_unit(double x)
{
    int e;
    double m = frexp(x, &e);
    if (m < SQRT_HALF) {
        m = m * 2.0;
        e = e - 1;
    }
    double k = (double)e;
    double f = m - 1.0;
    double s = f / (2.0 + f);
    double z = s * s;
    double w = z * z;
    double t1 = w * (LG2 + w * (LG4 + w * LG6));
    double t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    double r = t1 + t2;
    double hfsq = 0.5 * f * f;
    return k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f);
}

static double tail_quantile(double p)
{
    double q = sqrt(-2.0 * log_unit(p));
    double num = ((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5];
    double den = (((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0;
    return num / den;
}

static double normal_icdf(double p)
{
    if (p < P_LOW)
        return tail_quantile(p);
    if (p > 1.0 - P_LOW)
        return -tail_quantile(1.0 - p);
    double q = p - 0.5;
    double r = q * q;
    double num = (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q;
    double den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0;
    return num / den;
}

static void fill_direction(uint64_t seed, int tag, double *out, Py_ssize_t dim)
{
    Py_ssize_t i;
    if (tag == TAG_COORDINATE) {
        for (i = 0; i < dim; i++)
            out[i] = 0.0;
        out[mix64(seed + GOLDEN) % (uint64_t)dim] = 1.0;
        return;
    }
    for (i = 0; i < dim; i++) {
        uint64_t word = mix64(seed + (uint64_t)(i + 1) * GOLDEN);
        out[i] = normal_icdf((double)((word >> 12) * 2 + 1) * TWO_NEG53);
    }
    if (tag == TAG_SPHERE) {
        double acc = 0.0;
        for (i = 0; i < dim; i++)
            acc += out[i] * out[i];
        double nrm = sqrt(acc);
        for (i = 0; i < dim; i++)
            out[i] = out[i] / nrm;
    }
}

static PyObject *fill_directions(PyObject *self, PyObject *args)
{
    Py_buffer seeds, out;
    int tag;
    if (!PyArg_ParseTuple(args, "y*iw*", &seeds, &tag, &out))
        return NULL;
    Py_ssize_t rows = seeds.len / 8;
    Py_ssize_t dim = rows ? out.len / 8 / rows : 0;
    const char *err = NULL;
    if (seeds.len % 8 || out.len != rows * dim * 8)
        err = "out must hold len(seeds) rows of dim float64 entries";
    else if (rows && dim == 0 && tag == TAG_COORDINATE)
        err = "coordinate directions need dim >= 1";
    if (!err) {
        const uint64_t *s = seeds.buf;
        double *o = out.buf;
        for (Py_ssize_t r = 0; r < rows; r++)
            fill_direction(s[r], tag, o + r * dim, dim);
    }
    PyBuffer_Release(&seeds);
    PyBuffer_Release(&out);
    if (err) {
        PyErr_SetString(PyExc_ValueError, err);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fill_directions", fill_directions, METH_VARARGS,
     "fill_directions(seeds, tag, out): one direction per uint64 seed into out."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckern", "Compiled direction kernel (see pure.py).", -1, methods,
};

PyMODINIT_FUNC PyInit__ckern(void)
{
    return PyModule_Create(&module);
}
