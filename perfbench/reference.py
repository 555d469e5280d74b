"""Fixed reference work that tracks the speed of the machine during a run.

The benchmark's machine may share its cores with other tenants; its speed
then drifts by tens of percent within seconds to minutes.  ``work`` is a
fixed computation of the kinds calorix does, which no change to calorix
can alter.  ``run.py`` times it before and after every timed sample and
scales the sample by ``NOMINAL_S[kind]`` over the mean of those reference
times: the time the sample would have taken on a machine where ``work``
takes ``NOMINAL_S[kind]``.

The drift does not slow every kind of work alike: it slows Python loops and
numpy calls on short arrays more than dense linear algebra.  So there are
two kinds.  ``mixed`` (Python loops, numpy calls on short and long arrays,
a dense QR) is for workloads made of many small numpy calls; ``dense``
(long arrays and dense QR only) is for the ladder, whose time is mostly
BLAS.  Each workload names its kind in workloads.py.
"""

import functools
import time

# median seconds of ``work(kind)`` on the reference machine (README.md)
NOMINAL_S = {"mixed": 0.055, "dense": 0.035}


@functools.cache
def _inputs():
    import numpy as np

    rng = np.random.default_rng(20260218)
    return rng.random(20000), rng.random(20000) + 0.1, rng.random((1500, 120))


def work(kind):
    import numpy as np

    x, t, m = _inputs()
    acc = 0.0
    # long arrays: heat-kernel values at 20000 points
    for k in range(80):
        acc += float((np.exp(-(x - k / 80) ** 2 / (4 * t))
                      / np.sqrt(4 * np.pi * t)).sum())
    if kind == "mixed":
        # short arrays, where numpy's per-call overhead dominates
        for k in range(1200):
            xs, ts = x[k:k + 200], t[k:k + 200]
            g = np.exp(-xs * xs / (4 * ts)) / np.sqrt(ts)
            acc += float(np.dot(g, xs)) + float(g.max())
    # dense linear algebra
    for _ in range(1 if kind == "mixed" else 2):
        acc += float(np.abs(np.diag(np.linalg.qr(m)[1])).sum())
    if kind == "mixed":
        # plain Python: dictionaries, tuples, strings
        table = {}
        for i in range(24000):
            key = (i % 61, i % 7)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += len(str(i)) * 0.25
        acc += sum(table.values())
    return acc


def seconds(kind):
    """Wall seconds of one call of ``work(kind)``."""
    t0 = time.perf_counter()
    work(kind)
    return time.perf_counter() - t0
