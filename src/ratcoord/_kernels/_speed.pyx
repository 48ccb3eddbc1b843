# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of the pure-Python kernel ``linear_points_in_box``.

Same algorithm, same results, bit for bit; points are packed into 64-bit
integers for C-speed hashing.  Inputs that do not fit the packing raise
OverflowError, which the dispatching wrapper turns into a pure-Python call.
Every other kernel has no twin here.
"""

from libcpp.unordered_set cimport unordered_set
from libcpp.vector cimport vector

ctypedef long long i64
ctypedef unsigned long long u64

from ratcoord.errors import BudgetExceeded


cdef class _BoxEnum:
    cdef int dim, k
    cdef bint have_w, memo_on
    cdef long long whi, nodes, max_nodes
    cdef vector[i64] lo, hi, cur, wvec, wper, pack_lo, pack_span
    cdef vector[i64] periods          # k * dim, row major
    cdef vector[bint] sufnn, sufnp          # (k + 1) * dim
    cdef unordered_set[u64] memo
    cdef unordered_set[u64] found

    cdef bint pack_point(self, unsigned long long* out_key, int level):
        cdef unsigned long long key = <unsigned long long>level
        cdef int i
        cdef long long offset
        for i in range(self.dim):
            offset = self.cur[i] - self.pack_lo[i]
            if offset < 0 or offset >= self.pack_span[i]:
                return 0  # outside the memoizable window: skip memo, stay exact
            key = key * <unsigned long long>self.pack_span[i] \
                + <unsigned long long>offset
        out_key[0] = key
        return 1

    cdef int recurse(self, int j) except -1:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceeded(
                f"box enumeration exceeded {self.max_nodes} nodes"
            )
        cdef int i
        cdef long long n
        cdef unsigned long long key
        cdef bint in_box
        if j == self.k:
            in_box = 1
            for i in range(self.dim):
                if self.cur[i] < self.lo[i] or self.cur[i] > self.hi[i]:
                    in_box = 0
                    break
            if in_box:
                key = 0
                for i in range(self.dim):
                    key = key * <unsigned long long>self.pack_span[i] \
                        + <unsigned long long>(self.cur[i] - self.pack_lo[i])
                self.found.insert(key)
            return 0
        for i in range(self.dim):
            if self.sufnn[j * self.dim + i] and self.cur[i] > self.hi[i]:
                return 0
            if self.sufnp[j * self.dim + i] and self.cur[i] < self.lo[i]:
                return 0
        if self.memo_on:
            if self.pack_point(&key, j):
                if self.memo.find(key) != self.memo.end():
                    return 0
                self.memo.insert(key)
        cdef long long bound = -1
        cdef long long b, p, room
        cdef bint unbounded = 1
        for i in range(self.dim):
            p = self.periods[j * self.dim + i]
            if p > 0 and self.sufnn[(j + 1) * self.dim + i]:
                b = (self.hi[i] - self.cur[i]) // p
                if unbounded or b < bound:
                    bound = b
                    unbounded = 0
            elif p < 0 and self.sufnp[(j + 1) * self.dim + i]:
                b = (self.cur[i] - self.lo[i]) // (-p)
                if unbounded or b < bound:
                    bound = b
                    unbounded = 0
        if self.have_w:
            room = self.whi
            for i in range(self.dim):
                room -= self.wvec[i] * self.cur[i]
            b = room // self.wper[j]
            if b < 0:
                b = -1
            if unbounded or b < bound:
                bound = b
                unbounded = 0
        if unbounded:
            bound = self.max_nodes  # budget backstops termination
        for n in range(bound + 1):
            self.recurse(j + 1)
            for i in range(self.dim):
                self.cur[i] += self.periods[j * self.dim + i]
        for i in range(self.dim):
            self.cur[i] -= (bound + 1) * self.periods[j * self.dim + i]
        return 0


def linear_points_in_box(base, periods, lo, hi, weights, long long max_nodes):
    cdef int dim = len(base)
    cdef int k = len(periods)
    if dim > 12:
        raise OverflowError("dimension too large for the packed enumerator")

    cdef _BoxEnum ctx = _BoxEnum()
    ctx.dim = dim
    ctx.k = k
    ctx.nodes = 0
    ctx.max_nodes = max_nodes
    ctx.lo = vector[i64](dim)
    ctx.hi = vector[i64](dim)
    ctx.cur = vector[i64](dim)
    ctx.pack_lo = vector[i64](dim)
    ctx.pack_span = vector[i64](dim)
    ctx.periods = vector[i64](k * dim)
    ctx.sufnn = vector[bint]((k + 1) * dim)
    ctx.sufnp = vector[bint]((k + 1) * dim)

    cdef int i, j
    cdef long long max_period = 0, value, margin
    for j in range(k):
        for i in range(dim):
            value = periods[j][i]
            ctx.periods[j * dim + i] = value
            if value < 0:
                value = -value
            if value > max_period:
                max_period = value
    for i in range(dim):
        ctx.lo[i] = lo[i]
        ctx.hi[i] = hi[i]
        ctx.cur[i] = base[i]
        if abs(<object>base[i]) > 2**40 or abs(<object>lo[i]) > 2**40 \
                or abs(<object>hi[i]) > 2**40:
            raise OverflowError("coordinates too large for the packed enumerator")

    # memo window: generous padding around the box and base; points outside
    # simply skip memoization
    margin = 4 * (max_period + 1) * (k + 1)
    cdef double capacity = k + 1
    for i in range(dim):
        value = ctx.cur[i]
        ctx.pack_lo[i] = min(ctx.lo[i], value) - margin
        ctx.pack_span[i] = max(ctx.hi[i], value) + margin - ctx.pack_lo[i] + 1
        capacity *= ctx.pack_span[i]
    ctx.memo_on = capacity <= 1.8e18
    if capacity > 1.8e18:
        # found-point packing must always fit; refuse and fall back
        raise OverflowError("box too large for the packed enumerator")

    for i in range(dim):
        ctx.sufnn[k * dim + i] = 1
        ctx.sufnp[k * dim + i] = 1
    for j in range(k - 1, -1, -1):
        for i in range(dim):
            ctx.sufnn[j * dim + i] = (
                ctx.sufnn[(j + 1) * dim + i] and ctx.periods[j * dim + i] >= 0
            )
            ctx.sufnp[j * dim + i] = (
                ctx.sufnp[(j + 1) * dim + i] and ctx.periods[j * dim + i] <= 0
            )

    ctx.have_w = weights is not None
    if ctx.have_w:
        ctx.wvec = vector[i64](dim)
        ctx.wper = vector[i64](k)
        ctx.whi = 0
        for i in range(dim):
            ctx.wvec[i] = weights[i]
            if ctx.wvec[i] > 0:
                ctx.whi += ctx.wvec[i] * ctx.hi[i]
            else:
                ctx.whi += ctx.wvec[i] * ctx.lo[i]
        for j in range(k):
            value = 0
            for i in range(dim):
                value += ctx.wvec[i] * ctx.periods[j * dim + i]
            ctx.wper[j] = value

    ctx.recurse(0)

    out = set()
    cdef unsigned long long packed
    cdef long long coord
    for packed in ctx.found:
        coords = [0] * dim
        for i in range(dim - 1, -1, -1):
            coord = <long long>(packed % <unsigned long long>ctx.pack_span[i])
            coords[i] = coord + ctx.pack_lo[i]
            packed //= <unsigned long long>ctx.pack_span[i]
        out.add(tuple(coords))
    return out
