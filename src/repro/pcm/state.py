"""Stored cell state: physical data units plus per-unit flip tags.

Flip-based schemes (Flip-N-Write, Three-Stage-Write, Tetris Write) may
store a data unit inverted; the *physical* image lives in the PCM cells
and a one-bit *flip tag* per data unit records the encoding.  The logical
value is recovered as ``physical ^ (flip ? ~0 : 0)`` on the read path.

:class:`MemoryImage` is a sparse line store used by the bank model and the
trace pre-computation: lines materialize on first touch from a
deterministic per-address generator so that every scheme replaying the
same trace observes the identical content evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["LineState", "MemoryImage", "cell_diff", "initial_line_content"]

_U64 = np.uint64


@dataclass
class LineState:
    """Physical image of one cache line: cell contents + flip tags."""

    physical: np.ndarray  # (units,) uint64
    flip: np.ndarray      # (units,) bool

    @classmethod
    def from_logical(cls, logical: np.ndarray) -> "LineState":
        logical = np.atleast_1d(np.asarray(logical, dtype=_U64))
        return cls(physical=logical.copy(), flip=np.zeros(logical.shape, dtype=bool))

    @property
    def logical(self) -> np.ndarray:
        """Decode the stored image back to logical data."""
        return np.where(self.flip, ~self.physical, self.physical)

    def copy(self) -> "LineState":
        return LineState(self.physical.copy(), self.flip.copy())

    def store(self, physical: np.ndarray, flip: np.ndarray) -> None:
        """Commit a write's outcome (the write stage's end state)."""
        self.physical[:] = physical
        self.flip[:] = flip


def cell_diff(before: np.ndarray, after: np.ndarray) -> tuple[int, int]:
    """Count cell programs between two physical images.

    Returns ``(n_set, n_reset)``: the 0->1 and 1->0 transitions a write
    driver must apply to turn ``before`` into ``after``.  A checking
    helper: tests use it to cross-check a scheme's reported program
    counts against the state it committed.
    """
    b = np.atleast_1d(np.asarray(before, dtype=_U64))
    a = np.atleast_1d(np.asarray(after, dtype=_U64))
    diff = b ^ a
    n_set = int(np.bitwise_count(diff & a).sum())
    n_reset = int(np.bitwise_count(diff & b).sum())
    return n_set, n_reset


def initial_line_content(seed: int, line_addr: int, units: int = 8) -> np.ndarray:
    """Deterministic initial content for a line (uniform random bits).

    Uses a counter-based construction (``SeedSequence`` over
    ``(seed, line_addr)``) so any line can be materialized independently
    of access order — required for schemes to agree on initial state.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, line_addr & _MASK63]))
    return rng.integers(0, np.iinfo(np.uint64).max, size=units, dtype=np.uint64)


_MASK63 = (1 << 63) - 1


@dataclass
class MemoryImage:
    """Sparse line-granular memory content with lazy initialization."""

    seed: int
    units_per_line: int = 8
    initializer: Callable[[int, int, int], np.ndarray] = field(
        default=initial_line_content
    )
    _lines: dict[int, LineState] = field(default_factory=dict)

    def line(self, line_addr: int) -> LineState:
        state = self._lines.get(line_addr)
        if state is None:
            state = LineState.from_logical(
                self.initializer(self.seed, line_addr, self.units_per_line)
            )
            self._lines[line_addr] = state
        return state

    def read_logical(self, line_addr: int) -> np.ndarray:
        return self.line(line_addr).logical

    def __len__(self) -> int:
        return len(self._lines)

    def touched_lines(self) -> list[int]:
        return sorted(self._lines)
