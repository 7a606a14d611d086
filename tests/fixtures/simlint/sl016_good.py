"""SL016 good fixture: an analytic lane with the right dependencies.

Linted as ``repro.fastpath.pricer``: shared *inputs* (config schema,
the write-service table both lanes price from) and the independent
oracle are fine — only the DES under differential test is off limits.
"""

import heapq
from collections import deque

from repro.config import SystemConfig
from repro.oracle import analytic
from repro.schemes.pricing import precompute_write_service


def price_writes(trace, scheme: str, config: SystemConfig):
    point = analytic.OperatingPoint.from_config(config)
    table = precompute_write_service(trace, scheme, config)
    return table.service_ns, point


def merge_arrivals(per_core_times: list) -> list:
    heap = [(times[0], k, deque(times)) for k, times in
            enumerate(per_core_times) if len(times)]
    heapq.heapify(heap)
    merged = []
    while heap:
        _, k, times = heapq.heappop(heap)
        merged.append((times.popleft(), k))
        if times:
            heapq.heappush(heap, (times[0], k, times))
    return merged
