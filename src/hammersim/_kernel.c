/* Compiled build of the hot kernels, `hammersim._kernel`.

   Hand-written CPython extension with the same classes, results and
   error messages as the pure-Python build, `_kernel_py.py`, which is the
   reference.  A change to the kernel edits both files; the parity tests
   in tests/test_kernel.py and the golden digests tie the two.

   `act` counts one of two disciplines, AGGRESSOR or VICTIM, and raises
   ValueError for any other int code and TypeError for a code that is
   not an int, whatever the row.  Counters are 32-bit
   unsigned and saturate at `cap`.  Rows and queue counts are C longs.
   Constructor arguments are parsed in `tp_new` and there is no
   `tp_init`, so a Python subclass may define `__init__` and need not
   call the base one. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

enum { AGGRESSOR = 0, VICTIM = 1 };

/* Fastcall methods take a signature PyCFunction does not name. */
#define FASTCALL(f) ((PyCFunction)(void (*)(void))(f))

/* Reads `n` positional C longs into `out`; -1 with an error set if the
   count or a value is wrong. */
static int
parse_longs(const char *name, PyObject *const *args, Py_ssize_t nargs,
            Py_ssize_t n, long *out)
{
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes exactly %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsLong(args[i]);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* A new `(a, b)` tuple of ints. */
static PyObject *
pair(long a, long b)
{
    PyObject *x = PyLong_FromLong(a), *y = PyLong_FromLong(b);
    PyObject *t = (x && y) ? PyTuple_New(2) : NULL;
    if (t == NULL) {
        Py_XDECREF(x);
        Py_XDECREF(y);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, x);
    PyTuple_SET_ITEM(t, 1, y);
    return t;
}

/* Appends `(a, b)` to `list`; -1 with an error set on failure. */
static int
append_pair(PyObject *list, long a, long b)
{
    PyObject *t = pair(a, b);
    int rc = t ? PyList_Append(list, t) : -1;
    Py_XDECREF(t);
    return rc;
}

/* -- CounterCore ---------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long n_rows, dsa_rows, br;
    unsigned int cap;
    unsigned int *c;
} CounterCore;

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n_rows", "dsa_rows", "br", "cap", NULL};
    long n_rows, dsa_rows, br, cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "llll:CounterCore", kwlist,
                                     &n_rows, &dsa_rows, &br, &cap))
        return NULL;
    if (n_rows <= 0 || dsa_rows <= 0 || n_rows % dsa_rows != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "n_rows must be a positive multiple of dsa_rows");
        return NULL;
    }
    if (br < 1 || cap < 1) {
        PyErr_SetString(PyExc_ValueError, "br and cap must be >= 1");
        return NULL;
    }
    if ((unsigned long)cap > UINT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "cap does not fit in 32 bits");
        return NULL;
    }
    CounterCore *self = (CounterCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n_rows = n_rows;
    self->dsa_rows = dsa_rows;
    self->br = br;
    self->cap = (unsigned int)cap;
    self->c = PyMem_Calloc(n_rows, sizeof *self->c);
    if (self->c == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

static void
core_dealloc(PyObject *op)
{
    PyMem_Free(((CounterCore *)op)->c);
    Py_TYPE(op)->tp_free(op);
}

/* Reads a row index from `arg` into `row`; -1 with an error set if it is
   not an int, and IndexError if it lies outside the bank, a C long
   included, as in the Python build. */
static int
core_row(CounterCore *self, PyObject *arg, long *row)
{
    int overflow;
    *row = PyLong_AsLongAndOverflow(arg, &overflow);
    if (*row == -1 && PyErr_Occurred())
        return -1;
    if (!overflow && *row >= 0 && *row < self->n_rows)
        return 0;
    PyErr_SetString(PyExc_IndexError, "row out of range");
    return -1;
}

/* The counting code is checked first, so a bad one raises ValueError
   whatever the row, as in the Python build. */
static PyObject *
core_act(PyObject *op, PyObject *const *args, Py_ssize_t nargs)
{
    CounterCore *self = (CounterCore *)op;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "act() takes exactly 2 arguments (%zd given)", nargs);
        return NULL;
    }
    int overflow;
    long sem = PyLong_AsLongAndOverflow(args[1], &overflow);
    if (sem == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || (sem != AGGRESSOR && sem != VICTIM)) {
        PyErr_Format(PyExc_ValueError, "unknown counting code %S", args[1]);
        return NULL;
    }
    long row;
    if (core_row(self, args[0], &row) < 0)
        return NULL;
    PyObject *changed = PyList_New(0);
    if (changed == NULL)
        return NULL;
    unsigned int *c = self->c;
    if (sem == AGGRESSOR) {
        if (c[row] < self->cap) {
            c[row]++;
            if (append_pair(changed, row, c[row]) < 0)
                goto fail;
        }
        return changed;
    }
    /* VICTIM: reset self and bump the in-subarray neighbours, walked in
       row order so the changes come out sorted. */
    long lo = row - row % self->dsa_rows, hi = lo + self->dsa_rows - 1;
    long first = row - self->br < lo ? lo : row - self->br;
    long last = row + self->br > hi ? hi : row + self->br;
    for (long n = first; n <= last; n++) {
        if (n == row) {
            if (c[n] == 0)
                continue;
            c[n] = 0;
        }
        else if (c[n] < self->cap)
            c[n]++;
        else
            continue;
        if (append_pair(changed, n, c[n]) < 0)
            goto fail;
    }
    return changed;
fail:
    Py_DECREF(changed);
    return NULL;
}

static PyObject *
core_get(PyObject *op, PyObject *arg)
{
    CounterCore *self = (CounterCore *)op;
    long row;
    if (core_row(self, arg, &row) < 0)
        return NULL;
    return PyLong_FromUnsignedLong(self->c[row]);
}

static PyObject *
core_reset(PyObject *op, PyObject *arg)
{
    CounterCore *self = (CounterCore *)op;
    long row;
    if (core_row(self, arg, &row) < 0)
        return NULL;
    unsigned int old = self->c[row];
    self->c[row] = 0;
    return PyLong_FromUnsignedLong(old);
}

static PyObject *
core_load(PyObject *op, PyObject *arg)
{
    CounterCore *self = (CounterCore *)op;
    PyObject *values = PySequence_Fast(arg, "load() needs a sequence");
    if (values == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(values) != self->n_rows) {
        PyErr_SetString(PyExc_ValueError, "length mismatch");
        goto fail;
    }
    for (long i = 0; i < self->n_rows; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(values, i));
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < 0 || (unsigned long)v > self->cap) {
            PyErr_SetString(PyExc_ValueError, "value outside [0, cap]");
            goto fail;
        }
        self->c[i] = (unsigned int)v;
    }
    Py_DECREF(values);
    Py_RETURN_NONE;
fail:
    Py_DECREF(values);
    return NULL;
}

static PyObject *
core_snapshot(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    CounterCore *self = (CounterCore *)op;
    PyObject *out = PyList_New(self->n_rows);
    for (long i = 0; out != NULL && i < self->n_rows; i++) {
        PyObject *v = PyLong_FromUnsignedLong(self->c[i]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* The lowest row holding the largest count. */
static long
core_peak(CounterCore *self)
{
    long best = 0;
    for (long i = 1; i < self->n_rows; i++)
        if (self->c[i] > self->c[best])
            best = i;
    return best;
}

static PyObject *
core_max_count(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    CounterCore *self = (CounterCore *)op;
    return PyLong_FromUnsignedLong(self->c[core_peak(self)]);
}

static PyObject *
core_argmax(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLong(core_peak((CounterCore *)op));
}

static PyMethodDef core_methods[] = {
    {"act", FASTCALL(core_act), METH_FASTCALL,
     "Apply one activation of `row`; return rows whose count changed."},
    {"get", core_get, METH_O, NULL},
    {"reset", core_reset, METH_O, NULL},
    {"load", core_load, METH_O, NULL},
    {"snapshot", core_snapshot, METH_NOARGS, NULL},
    {"max_count", core_max_count, METH_NOARGS, NULL},
    {"argmax", core_argmax, METH_NOARGS,
     "Lowest row index holding the maximum count."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CounterCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "hammersim._kernel.CounterCore",
    .tp_basicsize = sizeof(CounterCore),
    .tp_dealloc = core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Saturating per-row activation counters for one bank.\n\n"
              "Rows are grouped into subarrays of `dsa_rows`; victim-side "
              "updates\nnever cross a subarray edge.",
    .tp_methods = core_methods,
    .tp_new = core_new,
};

/* -- TopQueue ------------------------------------------------------------- */

typedef struct {
    long count, row;
} Entry;

/* `keys[:n]` holds one entry per queued row, ascending by
   (count, -row), as `_kernel_py.TopQueue._keys` does: `keys[0]` is the
   eviction candidate and `keys[n - 1]` is what `pop_max` returns. */
typedef struct {
    PyObject_HEAD
    long depth;
    long n;
    Entry *keys;
} TopQueue;

static PyObject *
queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"depth", NULL};
    long depth;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "l:TopQueue", kwlist,
                                     &depth))
        return NULL;
    if (depth < 1) {
        PyErr_SetString(PyExc_ValueError, "depth must be >= 1");
        return NULL;
    }
    TopQueue *self = (TopQueue *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->depth = depth;
    self->keys = PyMem_Calloc(depth, sizeof *self->keys);
    if (self->keys == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

static void
queue_dealloc(PyObject *op)
{
    PyMem_Free(((TopQueue *)op)->keys);
    Py_TYPE(op)->tp_free(op);
}

static Py_ssize_t
queue_len(PyObject *op)
{
    return ((TopQueue *)op)->n;
}

/* The place of `row` in `keys`, or -1. */
static long
queue_find(TopQueue *self, long row)
{
    for (long i = 0; i < self->n; i++)
        if (self->keys[i].row == row)
            return i;
    return -1;
}

static void
queue_drop(TopQueue *self, long i)
{
    self->n--;
    memmove(&self->keys[i], &self->keys[i + 1],
            (size_t)(self->n - i) * sizeof *self->keys);
}

/* Inserts `e` at its sorted place; there must be a free slot. */
static void
queue_insert(TopQueue *self, Entry e)
{
    long i = self->n++;
    for (; i > 0; i--) {
        Entry k = self->keys[i - 1];
        if (k.count < e.count || (k.count == e.count && k.row > e.row))
            break;
        self->keys[i] = k;
    }
    self->keys[i] = e;
}

static PyObject *
queue_update(PyObject *op, PyObject *const *args, Py_ssize_t nargs)
{
    TopQueue *self = (TopQueue *)op;
    long a[2];
    if (parse_longs("update", args, nargs, 2, a) < 0)
        return NULL;
    Entry e = {.row = a[0], .count = a[1]};
    long evicted = -1;
    long i = queue_find(self, e.row);
    if (i >= 0)
        queue_drop(self, i);
    else if (self->n == self->depth) {
        if (e.count <= self->keys[0].count)
            return PyLong_FromLong(-2);
        evicted = self->keys[0].row;
        queue_drop(self, 0);
    }
    queue_insert(self, e);
    return PyLong_FromLong(evicted);
}

static PyObject *
queue_remove(PyObject *op, PyObject *arg)
{
    TopQueue *self = (TopQueue *)op;
    long row = PyLong_AsLong(arg);
    if (row == -1 && PyErr_Occurred())
        return NULL;
    long i = queue_find(self, row);
    if (i < 0)
        Py_RETURN_FALSE;
    queue_drop(self, i);
    Py_RETURN_TRUE;
}

static PyObject *
queue_pop_max(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    TopQueue *self = (TopQueue *)op;
    if (self->n == 0)
        Py_RETURN_NONE;
    Entry e = self->keys[--self->n];
    return pair(e.row, e.count);
}

static PyObject *
queue_peek_max_count(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    TopQueue *self = (TopQueue *)op;
    return PyLong_FromLong(self->n ? self->keys[self->n - 1].count : -1);
}

static PyObject *
queue_min_count(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    TopQueue *self = (TopQueue *)op;
    return PyLong_FromLong(self->n ? self->keys[0].count : -1);
}

static PyObject *
queue_items(PyObject *op, PyObject *Py_UNUSED(ignored))
{
    TopQueue *self = (TopQueue *)op;
    PyObject *out = PyList_New(self->n);
    for (long i = 0; out != NULL && i < self->n; i++) {
        Entry e = self->keys[self->n - 1 - i];
        PyObject *t = pair(e.row, e.count);
        if (t == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, t);
    }
    return out;
}

static PyMethodDef queue_methods[] = {
    {"update", FASTCALL(queue_update), METH_FASTCALL,
     "Returns the evicted row, -1 if none, -2 if rejected."},
    {"remove", queue_remove, METH_O, NULL},
    {"pop_max", queue_pop_max, METH_NOARGS, NULL},
    {"peek_max_count", queue_peek_max_count, METH_NOARGS, NULL},
    {"min_count", queue_min_count, METH_NOARGS, NULL},
    {"items", queue_items, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = queue_len,
};

static PyTypeObject TopQueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "hammersim._kernel.TopQueue",
    .tp_basicsize = sizeof(TopQueue),
    .tp_dealloc = queue_dealloc,
    .tp_as_sequence = &queue_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Fixed-depth queue of the highest-count rows seen so far.\n\n"
              "Insert-or-update: a row already present just has its count "
              "rewritten.\nA new row lands in a free slot, or, when full, "
              "displaces the current\nminimum only if its count is strictly "
              "larger; among equal minima the\nhigher-numbered row is "
              "displaced first (the lower row is retained).\n`pop_max` "
              "yields count-descending, row-ascending.",
    .tp_methods = queue_methods,
    .tp_new = queue_new,
};

/* -- module --------------------------------------------------------------- */

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "hammersim._kernel",
    .m_doc = "Compiled build of the hot kernels (see `_kernel_py` for the "
             "reference).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "KERNEL_BUILD", "compiled") < 0
        || PyModule_AddIntConstant(m, "AGGRESSOR", AGGRESSOR) < 0
        || PyModule_AddIntConstant(m, "VICTIM", VICTIM) < 0
        || PyModule_AddType(m, &CounterCoreType) < 0
        || PyModule_AddType(m, &TopQueueType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
