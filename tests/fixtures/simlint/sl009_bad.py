"""Fork-unsafe multiprocessing patterns SL009 must flag.

Module-level mutable state consumed inside pool workers diverges per
forked process; lambdas submitted as pool tasks break under spawn.
"""

import multiprocessing
from functools import partial

from repro.parallel.supervisor import WorkerSupervisor

RESULTS = []  # mutable module state, consumed below
_CACHE = {}   # ditto — per-process copies diverge silently


def worker(x):
    if x in _CACHE:        # SL009: module-level mutable read in worker
        return _CACHE[x]
    _CACHE[x] = x * x
    RESULTS.append(x)      # SL009: accumulation lost when the pool exits
    return _CACHE[x]


def helper(x, y):
    RESULTS.append(x)      # SL009: submitted via partial(helper, ...)
    return x + y


def run():
    with multiprocessing.Pool(2) as pool:
        out = list(pool.imap_unordered(worker, range(4)))
        out += pool.map(lambda v: v + 1, range(4))       # SL009: lambda task
        out += pool.map(partial(helper, y=1), range(4))
    return out


def supervise():
    return WorkerSupervisor(lambda p: p, workers=2)      # SL009: lambda task


def spawn_proc():
    proc = multiprocessing.Process(target=lambda: None)  # SL009: lambda task
    proc.start()
    return proc
