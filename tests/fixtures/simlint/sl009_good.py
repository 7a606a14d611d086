"""Fork-safe pool usage SL009 accepts (and SL014-sanctioned fan-out).

Workers are top-level (picklable under spawn), per-process memoization
goes through ``functools.lru_cache`` on a pure function instead of a
module-level dict, module-level state that workers read is immutable,
and dispatch goes through the supervised ``WorkerSupervisor`` rather
than a bare ``multiprocessing.Pool``.
"""

from functools import lru_cache, partial

from repro.parallel.supervisor import WorkerSupervisor

LIMIT = 8  # immutable module constant: safe to read from any process


@lru_cache(maxsize=8)
def _expensive(x):
    return x * x


def worker(x):
    # Per-process memoization via lru_cache on a pure function — the
    # fork-safe replacement for a module-level cache dict.
    return _expensive(x) + LIMIT


def offset_worker(x, offset):
    return x + offset


def run():
    with WorkerSupervisor(worker, workers=2) as a, WorkerSupervisor(
        task_fn=partial(offset_worker, offset=2), workers=2
    ) as b:
        items = list(enumerate(range(LIMIT)))
        return [r.value for r in a.run(items)] + [r.value for r in b.run(items)]


def local_mutables_are_fine():
    acc = []
    for i in range(3):
        acc.append(i)
    return acc
