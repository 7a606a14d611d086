"""Device-level organization: ranks, banks and the address map.

The paper's memory is 4 GB of SLC PCM, single rank, 8 banks (Table II).
Cache-line addresses interleave across banks so consecutive lines hit
different banks — the standard layout that lets the FR-FCFS controller
exploit bank-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig, default_config
from repro.pcm.bank import PCMBank

__all__ = ["AddressMap", "PCMDevice"]


@dataclass(frozen=True)
class AddressMap:
    """Byte address <-> (rank, bank, row, line) decoding.

    Line interleaving: line ``n`` maps to bank ``n mod B`` of rank
    ``(n // B) mod R``; the row is the line index within the bank divided
    by lines-per-row.  Rows only matter for the (optional) row-buffer
    model in the controller; PCM reads are flat 50 ns by default.
    """

    line_bytes: int = 64
    num_banks: int = 8
    num_ranks: int = 1
    row_size_bytes: int = 2048
    capacity_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.num_banks <= 0 or self.num_ranks <= 0:
            raise ValueError("sizes must be positive")
        if self.row_size_bytes % self.line_bytes:
            raise ValueError("row size must be a multiple of the line size")

    @property
    def lines_per_row(self) -> int:
        return self.row_size_bytes // self.line_bytes

    def line_of(self, byte_addr: int) -> int:
        return byte_addr // self.line_bytes

    def decode(self, byte_addr: int) -> tuple[int, int, int, int]:
        """Returns ``(rank, bank, row, line)`` for a byte address."""
        line = self.line_of(byte_addr % self.capacity_bytes)
        bank = line % self.num_banks
        rank = (line // self.num_banks) % self.num_ranks
        row = line // (self.num_banks * self.num_ranks * self.lines_per_row)
        return rank, bank, row, line

    def bank_of_line(self, line: int) -> int:
        return line % self.num_banks

    def global_bank_of_line(self, line: int) -> int:
        """Flat index over ranks x banks (= ``rank * banks + bank``)."""
        return line % (self.num_banks * self.num_ranks)


class PCMDevice:
    """All banks of the device, sharing one scheme *type* (one each).

    Each bank gets its own scheme instance because stateful schemes
    (Tetris keeps its last schedule for inspection) must not be shared
    across concurrently-busy banks.
    """

    def __init__(
        self,
        scheme_factory,
        config: SystemConfig | None = None,
        *,
        verify_cells: bool = False,
        track_wear: bool = False,
    ) -> None:
        self.config = config if config is not None else default_config()
        org = self.config.organization
        self.address_map = AddressMap(
            line_bytes=self.config.cache_line_bytes,
            num_banks=org.num_banks,
            num_ranks=org.num_ranks,
            row_size_bytes=org.row_size_bytes,
            capacity_bytes=org.capacity_bytes,
        )
        self.banks = [
            PCMBank(
                b,
                scheme_factory(self.config),
                self.config,
                verify_cells=verify_cells,
                track_wear=track_wear,
            )
            for b in range(org.num_banks * org.num_ranks)
        ]

    def bank_for(self, line: int) -> PCMBank:
        return self.banks[self.address_map.global_bank_of_line(line)]

    def read(self, line: int) -> tuple[np.ndarray, float]:
        return self.bank_for(line).read(line)

    def write(self, line: int, data: np.ndarray):
        return self.bank_for(line).write(line, data)

    # ------------------------------------------------------------------
    def total_stats(self) -> dict[str, float]:
        """Aggregate bank counters (reads, writes, energy, mean units)."""
        reads = sum(b.stats.reads for b in self.banks)
        writes = sum(b.stats.writes for b in self.banks)
        units = sum(b.stats.write_units for b in self.banks)
        return {
            "reads": reads,
            "writes": writes,
            "busy_ns": sum(b.stats.busy_ns for b in self.banks),
            "energy": sum(b.stats.energy for b in self.banks),
            "set_bits": sum(b.stats.set_bits for b in self.banks),
            "reset_bits": sum(b.stats.reset_bits for b in self.banks),
            "mean_write_units": units / writes if writes else 0.0,
        }

    def wear_stats(self):
        """Merged wear distribution across banks (requires track_wear)."""
        from repro.pcm.wear import WearTracker

        merged = WearTracker()
        for bank in self.banks:
            if bank.wear is None:
                raise RuntimeError(
                    "device was not built with track_wear=True"
                )
            for line, programs in bank.wear._programs.items():
                merged.record(line, programs, 0)
        return merged.stats()
