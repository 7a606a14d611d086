"""Sweep checkpointing: an append-only, crash-tolerant completion log.

A killed sweep used to restart from zero (or from whatever the result
cache happened to hold).  :class:`SweepJournal` records every completed
cell as one JSONL line — ``{"v", "key", "meta", "row"}`` — beside the
:class:`~repro.parallel.resultcache.ResultCache`, so
``SweepEngine.run(..., resume=True)`` can skip finished work after a
crash and reproduce the uninterrupted run byte-for-byte.

Durability discipline:

* **Append + fsync** — each record is appended and fsync'd before the
  cell is considered journaled, so a crash can lose at most the line
  being written (never a previously acknowledged one).
* **Truncation tolerance** — :meth:`load` parses line by line; a torn
  or corrupt line (the expected crash artifact) is counted in
  :attr:`corrupt_lines` and skipped, never raised.

Keys are content addresses: :func:`journal_cell_key` hashes the cell's
canonical config JSON, trace key, scheme, and the code-version salt, so
a journal written by different sources (or a different grid) can never
leak a stale row into a resumed sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "StaleJournalError",
    "SweepJournal",
    "journal_cell_key",
]

JOURNAL_FORMAT_VERSION = 2


class StaleJournalError(RuntimeError):
    """A resume found a journal written under a different code salt.

    Journal keys embed the code-version salt, so after any simulator
    source change *every* lookup misses — silently re-executing the
    whole grid while claiming to resume.  Raising makes the staleness
    explicit; the remedy is to start a fresh journal.
    """


def journal_cell_key(
    *, config_json: str, trace_key: str, scheme: str, salt: str,
    lane: str = "des",
) -> str:
    """Content address of one journaled cell (code-salted like the cache).

    ``lane`` keeps analytic-fastpath rows and DES rows from satisfying
    each other's resume lookups — the lanes agree only within tolerance.
    """
    h = hashlib.sha256()
    for part in (
        f"journal:{JOURNAL_FORMAT_VERSION}", salt, scheme, trace_key, lane,
        config_json,
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class SweepJournal:
    """One on-disk completion log rooted at ``path``.

    ``fsync=False`` trades the per-record fsync for speed (tests,
    throwaway sweeps); production resume paths should keep the default.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.corrupt_lines = 0
        self.skipped_duplicates = 0
        self._seen: set[str] = set()
        #: code salts stamped in loaded/appended record meta — the
        #: resume path uses these to tell "different grid" apart from
        #: "journal written by different sources" (StaleJournalError)
        self.salts: set[str] = set()

    # ------------------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """Return ``{key: row}`` for every valid journaled record.

        Corrupt or truncated lines — the normal residue of a crash mid
        append — are skipped and counted in :attr:`corrupt_lines`.
        Later records win on duplicate keys (a re-run re-journaling a
        cell simply confirms it).
        """
        rows: dict[str, dict] = {}
        self.corrupt_lines = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return rows
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.corrupt_lines += 1
                continue
            if (
                not isinstance(record, dict)
                or record.get("v") != JOURNAL_FORMAT_VERSION
                or not isinstance(record.get("key"), str)
                or not isinstance(record.get("row"), dict)
            ):
                self.corrupt_lines += 1
                continue
            rows[record["key"]] = record["row"]
            meta = record.get("meta")
            if isinstance(meta, dict):
                self._note_salt(meta)
        self._seen.update(rows)
        return rows

    # ------------------------------------------------------------------
    def append(self, key: str, row: dict, *, meta: dict | None = None) -> bool:
        """Durably record one completed cell; False if already journaled.

        A failed append (disk full, permissions) must never kill the
        sweep — the cell's result is still returned to the caller, it
        just won't be resumable.
        """
        if key in self._seen:
            self.skipped_duplicates += 1
            return False
        record = {
            "v": JOURNAL_FORMAT_VERSION,
            "key": key,
            "meta": meta or {},
            "row": row,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                os.write(fd, line.encode("utf-8"))
                if self.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            return False
        self._seen.add(key)
        if meta:
            self._note_salt(meta)
        return True

    def _note_salt(self, meta: dict) -> None:
        salt = meta.get("salt")
        if isinstance(salt, str) and salt:
            self.salts.add(salt)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: str) -> bool:
        return key in self._seen
