#!/usr/bin/env python
"""Reproduce the paper's Figure 4 chip-level timing diagram.

Uses the worked example of §III: per-chip budget 32 SET units, write-1
currents [8,7,7,6,6,6,5,3], write-0 cell counts [1,1,1,2,3,2,2,5].
The rendered schedule shows the 'Tetris' effect: the long write-1 bars
of write units 1-2 leave interspaces that absorb every short write-0,
so the line completes in 2 x Tset (T1) versus Three-Stage-Write's 2.5
(T2), 2-Stage-Write's 3 (T3) and Flip-N-Write's 4 (T4).

Run:  python examples/timing_diagram.py [--random SEED]
"""

import sys

import numpy as np

from repro.analysis.timing_diagram import render_timing_diagram
from repro.experiments.table import FIG4_RESET, FIG4_SET

if "--random" in sys.argv:
    seed = int(sys.argv[sys.argv.index("--random") + 1])
    rng = np.random.default_rng(seed)
    # Draw a write from the paper's average regime (Fig 3).
    n_set = rng.poisson(6.7, size=8)
    n_reset = rng.poisson(2.9, size=8)
    print(f"random write (seed {seed}), bank budget 128:\n")
    print(render_timing_diagram(n_set, n_reset))
else:
    print("paper Figure 4 worked example, per-chip budget 32:\n")
    print(render_timing_diagram(FIG4_SET, FIG4_RESET, power_budget=32.0))
