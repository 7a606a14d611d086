"""Oracle-certified analytic fast path for sweep cells.

For cells inside a verified envelope (single-level cells, no fault
injection, the paper's FIFO-drain controller) a sweep row can be
*priced* analytically — the write-service table both lanes share plus a
two-regime queueing model — instead of *simulated*, at ~17x the speed
with sub-6% error on every system metric (docs/PERFORMANCE.md).

Lane discipline: the fast path must never be able to copy the DES's
answers, so this package may not import ``repro.sim``, ``repro.memctrl``
or ``repro.cpu`` (simlint SL016); the per-write prices it shares with
the DES are checked by the oracle's table lane instead.  Trust comes
from the per-run certificate (:mod:`repro.fastpath.certificate`): every
row records its lane, and a seeded sample of fastpath rows is re-run
through the DES and compared under measured agreement bands
(:mod:`repro.fastpath.agreement`).
"""

from repro.fastpath.agreement import FIELD_TOLERANCES, FieldTolerance, compare_rows
from repro.fastpath.certificate import (
    CERTIFICATE_VERSION,
    build_certificate,
    write_certificate,
)
from repro.fastpath.envelope import (
    EnvelopeDecision,
    FastpathEnvelopeError,
    classify,
)
from repro.fastpath.pricer import (
    model_cell,
    price_cell,
    price_write_service,
)
from repro.fastpath.recheck import (
    DEFAULT_RECHECK_FRACTION,
    recheck_rows,
    select_recheck_indices,
)

__all__ = [
    "CERTIFICATE_VERSION",
    "DEFAULT_RECHECK_FRACTION",
    "EnvelopeDecision",
    "FIELD_TOLERANCES",
    "FastpathEnvelopeError",
    "FieldTolerance",
    "build_certificate",
    "classify",
    "compare_rows",
    "model_cell",
    "price_cell",
    "price_write_service",
    "recheck_rows",
    "select_recheck_indices",
    "write_certificate",
]
