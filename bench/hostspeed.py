"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host.  What other tenants
run there changes how fast the same Python code executes: one identical
``closed_form`` operation takes anywhere from about 70 to 145 ms, in
stretches that last from seconds to minutes, and the CPU time of the
process follows the wall time, so the process is slowed, not paused.
Between two 30 s runs that drift moves a median by up to 40 %.

So the harness runs ``kernel`` before and after every timed operation
and scales the operation's time by ``REFERENCE_S`` over the slower of
the two kernel times.  The kernel is pure Python written in the same
style as rsskit (frozen dataclasses, ``dataclasses.replace``, tuple
segment lists, ``bisect``, ``math``, float formatting and parsing, a
hash), so host load slows it by about the same factor as the
operations.  It does not call rsskit, so
a change to rsskit does not change it.  A scaled time reads as the time
the operation would take on a host where the kernel takes
``REFERENCE_S``, which is about its time on an unloaded core of the host
the benchmark was defined on (x86-64, Python 3.11).
"""
from __future__ import annotations

import gc
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from time import perf_counter

REFERENCE_S = 0.0025

_ACCEL = (2.0, -4.0, 0.5, -8.0, 1.0, 0.0, -2.0)


@dataclass(frozen=True)
class _State:
    t: float
    x: float
    v: float
    a: float


def kernel(n=1000):
    """Fixed work: step a vehicle through n constant-acceleration segments,
    query positions on them, then format, parse and hash the samples."""
    st = _State(0.0, 0.0, 20.0, 0.0)
    segs = []
    starts = []
    seen = {}
    for k in range(n):
        a = _ACCEL[k % 7]
        dt = 0.05 + 0.01 * (k % 3)
        v1 = st.v + a * dt
        if v1 < 0.0:
            ts = st.v / -a
            x1 = st.x + st.v * ts + 0.5 * a * ts * ts
            v1 = 0.0
        else:
            x1 = st.x + st.v * dt + 0.5 * a * dt * dt
        if v1 == 0.0 and a <= 0.0:
            v1 = 20.0
        if k % 4 == 0:
            st = replace(st, t=st.t + dt, x=x1, v=v1, a=a)
        else:
            st = _State(st.t + dt, x1, v1, a)
        segs.append((st.t, st.x, st.v, a))
        starts.append(st.t)
        seen[a] = seen.get(a, 0) + 1
    total = 0.0
    for j in range(n):
        q = starts[-1] * ((j * 0.618) % 1.0)
        t0, x0, v0, a = segs[max(0, bisect_right(starts, q) - 1)]
        tau = q - t0
        gap = x0 + v0 * tau + 0.5 * a * tau * tau - 0.9 * x0
        total += math.sqrt(gap + 1.0) if gap > 0.0 else min(gap, -1.0)
    rows = [f"{t:.9g},{x:.9g},{v:.9g}" for t, x, v, _ in segs[: n // 4]]
    total += sum(float(row.split(",")[1]) for row in rows)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return total + len(digest) + len(seen)


def kernel_seconds():
    """Seconds one run of the kernel takes now.

    The cyclic garbage collector is off while it runs, so that the time
    does not depend on how many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
