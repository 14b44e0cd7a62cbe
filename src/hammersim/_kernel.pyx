# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled build of the hot kernels (see `_kernel_py` for the reference)."""
# Build input is _kernel.c; regenerate it: cython -3 src/hammersim/_kernel.pyx
from libc.stdlib cimport calloc, malloc, free

KERNEL_BUILD = "compiled"

AGGRESSOR = 0
VICTIM = 1
NONE = 2


cdef class CounterCore:
    """Saturating per-row activation counters for one bank.

    Rows are grouped into subarrays of `dsa_rows`; victim-side updates
    never cross a subarray edge.
    """

    cdef readonly int n_rows
    cdef readonly int dsa_rows
    cdef readonly int br
    cdef readonly unsigned int cap
    cdef unsigned int *_c

    def __cinit__(self, int n_rows, int dsa_rows, int br, long cap):
        if n_rows <= 0 or dsa_rows <= 0 or n_rows % dsa_rows != 0:
            raise ValueError("n_rows must be a positive multiple of dsa_rows")
        if br < 1 or cap < 1:
            raise ValueError("br and cap must be >= 1")
        self.n_rows = n_rows
        self.dsa_rows = dsa_rows
        self.br = br
        self.cap = <unsigned int> cap
        self._c = <unsigned int *> calloc(n_rows, sizeof(unsigned int))
        if self._c == NULL:
            raise MemoryError()

    def __dealloc__(self):
        if self._c != NULL:
            free(self._c)

    def act(self, int row, int sem):
        """Apply one activation of `row`; return rows whose count changed."""
        cdef list changed = []
        cdef unsigned int v
        cdef int lo, hi, d, n
        if sem == 2:  # NONE
            return changed
        if sem == 0:  # AGGRESSOR
            v = self._c[row]
            if v < self.cap:
                self._c[row] = v + 1
                changed.append((row, v + 1))
            return changed
        if self._c[row] != 0:
            self._c[row] = 0
            changed.append((row, 0))
        lo = (row // self.dsa_rows) * self.dsa_rows
        hi = lo + self.dsa_rows
        for d in range(1, self.br + 1):
            n = row - d
            if n >= lo:
                v = self._c[n]
                if v < self.cap:
                    self._c[n] = v + 1
                    changed.append((n, v + 1))
            n = row + d
            if n < hi:
                v = self._c[n]
                if v < self.cap:
                    self._c[n] = v + 1
                    changed.append((n, v + 1))
        changed.sort()
        return changed

    def get(self, int row):
        return self._c[row]

    def reset(self, int row):
        cdef unsigned int old = self._c[row]
        self._c[row] = 0
        return old

    def fill(self, long value):
        if value < 0 or value > <long> self.cap:
            raise ValueError("fill value outside [0, cap]")
        cdef int i
        for i in range(self.n_rows):
            self._c[i] = <unsigned int> value

    def load(self, values):
        if len(values) != self.n_rows:
            raise ValueError("length mismatch")
        cdef int i
        cdef long v
        for i in range(self.n_rows):
            v = values[i]
            if v < 0 or v > <long> self.cap:
                raise ValueError("value outside [0, cap]")
            self._c[i] = <unsigned int> v

    def snapshot(self):
        cdef int i
        return [self._c[i] for i in range(self.n_rows)]

    def max_count(self):
        cdef unsigned int m = 0
        cdef int i
        for i in range(self.n_rows):
            if self._c[i] > m:
                m = self._c[i]
        return m

    def argmax(self):
        """Lowest row index holding the maximum count."""
        cdef int best = 0
        cdef int i
        for i in range(1, self.n_rows):
            if self._c[i] > self._c[best]:
                best = i
        return best

    def count_at_least(self, long threshold):
        cdef long k = 0
        cdef int i
        for i in range(self.n_rows):
            if <long> self._c[i] >= threshold:
                k += 1
        return k


cdef class TopQueue:
    """Fixed-depth queue of the highest-count rows seen so far.

    Insert-or-update: a row already present just has its count rewritten.
    A new row lands in a free slot, or, when full, displaces the current
    minimum only if its count is strictly larger; among equal minima the
    higher-numbered row is displaced first (the lower row is retained).
    `pop_max` yields count-descending, row-ascending.
    """

    cdef readonly int depth
    cdef int _n
    cdef long *_rows
    cdef long *_counts

    def __cinit__(self, int depth):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._n = 0
        self._rows = <long *> malloc(depth * sizeof(long))
        self._counts = <long *> malloc(depth * sizeof(long))
        if self._rows == NULL or self._counts == NULL:
            raise MemoryError()

    def __dealloc__(self):
        if self._rows != NULL:
            free(self._rows)
        if self._counts != NULL:
            free(self._counts)

    def __len__(self):
        return self._n

    def update(self, long row, long count):
        """Returns the evicted row, -1 if none, -2 if rejected."""
        cdef int i, mi
        for i in range(self._n):
            if self._rows[i] == row:
                self._counts[i] = count
                return -1
        if self._n < self.depth:
            self._rows[self._n] = row
            self._counts[self._n] = count
            self._n += 1
            return -1
        mi = 0
        for i in range(1, self._n):
            if (self._counts[i] < self._counts[mi]
                    or (self._counts[i] == self._counts[mi]
                        and self._rows[i] > self._rows[mi])):
                mi = i
        if count <= self._counts[mi]:
            return -2
        cdef long evicted = self._rows[mi]
        self._rows[mi] = row
        self._counts[mi] = count
        return evicted

    def remove(self, long row):
        cdef int i, j
        for i in range(self._n):
            if self._rows[i] == row:
                for j in range(i + 1, self._n):
                    self._rows[j - 1] = self._rows[j]
                    self._counts[j - 1] = self._counts[j]
                self._n -= 1
                return True
        return False

    def pop_max(self):
        if self._n == 0:
            return None
        cdef int mi = 0
        cdef int i, j
        for i in range(1, self._n):
            if (self._counts[i] > self._counts[mi]
                    or (self._counts[i] == self._counts[mi]
                        and self._rows[i] < self._rows[mi])):
                mi = i
        cdef long row = self._rows[mi]
        cdef long count = self._counts[mi]
        for j in range(mi + 1, self._n):
            self._rows[j - 1] = self._rows[j]
            self._counts[j - 1] = self._counts[j]
        self._n -= 1
        return row, count

    def peek_max_count(self):
        if self._n == 0:
            return -1
        cdef long m = self._counts[0]
        cdef int i
        for i in range(1, self._n):
            if self._counts[i] > m:
                m = self._counts[i]
        return m

    def min_count(self):
        if self._n == 0:
            return -1
        cdef long m = self._counts[0]
        cdef int i
        for i in range(1, self._n):
            if self._counts[i] < m:
                m = self._counts[i]
        return m

    def items(self):
        cdef int i
        pairs = [(self._rows[i], self._counts[i]) for i in range(self._n)]
        pairs.sort(key=lambda rc: (-rc[1], rc[0]))
        return pairs

    def clear(self):
        self._n = 0
