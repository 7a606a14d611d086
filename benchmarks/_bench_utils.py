"""Shared helpers for the benches (imported as a module)."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

OUT_DIR = Path(__file__).parent / "out"

REQUESTS_PER_CORE = 2000
SEED = 20160816


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def make_payload(n_writes: int) -> np.ndarray:
    """``n_writes + 1`` random lines, each then partially rewritten.

    Row 0 seeds the line state and every later row is one write: a
    random line XOR a 16-bit window, the realistic partial-change writes
    the overhead gates time the scheme hot path on.
    """
    rng = np.random.default_rng(SEED)
    lines = rng.integers(0, 1 << 63, size=(n_writes + 1, 8), dtype=np.uint64)
    masks = rng.integers(0, 1 << 16, size=(n_writes + 1, 8), dtype=np.uint64)
    return lines ^ masks


def interleaved_minima(
    runs: dict[str, Callable[[], float]],
    *,
    rounds: int,
    repeats: int,
    converged: Callable[[dict[str, float]], bool],
) -> dict[str, float]:
    """Best-of minima of each run, measured interleaved.

    Each round calls every run ``repeats`` times in turn (interleaving
    keeps the configurations comparable on a loaded machine; minima
    discard scheduler noise).  Minima carry over between rounds, which
    stop as soon as ``converged(minima)`` holds or the budget is spent,
    so a gate reports honestly either way.
    """
    best = dict.fromkeys(runs, math.inf)
    for _ in range(rounds):
        for _ in range(repeats):
            for name, run in runs.items():
                best[name] = min(best[name], run())
        if converged(best):
            break
    return best
