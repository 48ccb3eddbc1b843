#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Covers the one kernel with a compiled twin, box enumeration.  Run from the
repository root, with or without the extension built:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

from ratcoord._kernels import pure

try:
    from ratcoord._kernels import _speed
except ImportError:
    _speed = None


def bench_box(backend):
    base = (0, 0, 0)
    periods = ((1, 0, 2), (0, 1, 2), (1, -1, 2), (-1, 1, 2), (0, 0, 1))
    lo, hi = (-30, -30, -30), (30, 30, 30)
    return lambda: backend.linear_points_in_box(base, periods, lo, hi, (0, 0, 1), 10**8)


BENCHES = [
    ("box enum 5-period cone r 30", bench_box),
]


def timeit(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    if _speed is None:
        print("compiled kernels not available; showing pure timings only")
    rows = []
    for name, make in BENCHES:
        pure_time, pure_result = timeit(make(pure))
        if _speed is not None:
            fast_time, fast_result = timeit(make(_speed))
            assert pure_result == fast_result, f"backend mismatch in {name}"
            rows.append((name, pure_time, fast_time, pure_time / fast_time))
        else:
            rows.append((name, pure_time, None, None))
    width = max(len(name) for name, *_ in rows)
    print(f"{'kernel':<{width}}  {'pure':>9}  {'compiled':>9}  {'speedup':>7}")
    for name, pure_time, fast_time, speedup in rows:
        if fast_time is None:
            print(f"{name:<{width}}  {pure_time:>8.3f}s  {'-':>9}  {'-':>7}")
        else:
            print(
                f"{name:<{width}}  {pure_time:>8.3f}s  {fast_time:>8.3f}s  "
                f"{speedup:>6.1f}x"
            )


if __name__ == "__main__":
    main()
