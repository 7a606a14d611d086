"""Content-addressed on-disk cache for experiment-grid cells.

Every (scheme x workload x seed x config) cell of a sweep is a pure
function of its inputs, so its :class:`~repro.experiments.runner.
ExperimentResult` can be cached on disk and replayed on the next
invocation without touching the DES.  The key design points:

* **Content addressing** — a cell's key is the SHA-256 of the
  canonicalized :class:`~repro.config.SystemConfig` JSON, the trace key
  (either a content fingerprint for user-supplied traces or the full
  synthetic-generation coordinates), the scheme name, and a code-version
  salt.  Anything that can change the simulated result changes the key.
* **Code-version salt** — the salt hashes every ``*.py`` file of the
  installed ``repro`` package, so editing any simulator source
  invalidates the whole store automatically; no manual version bumps,
  no stale results after a refactor.
* **Atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``d into place, so concurrent sweep
  processes sharing one store can never observe a torn entry.
  ``fsync=True`` also makes each put durable: the temp file is fsync'd
  before the rename and the entry's directory after it (the sweep
  service's setting; sweeps keep plain puts, their journal carries
  resume).
* **Opt-outs** — ``REPRO_NO_CACHE`` (any non-empty value) disables the
  cache globally; ``REPRO_CACHE_DIR`` moves the store; callers can pass
  an explicit directory or ``cache=False``.
* **Integrity** — every entry embeds a SHA-256 digest of its row
  payload; :meth:`ResultCache.get` re-hashes on read and a mismatched
  or unparseable entry is *quarantined* (moved to ``<root>/quarantine/``
  for inspection, counted in :attr:`CacheStats.corrupt`) instead of
  silently re-missing forever.  :meth:`ResultCache.verify` audits the
  whole store; :meth:`ResultCache.gc` drops stale-salt and quarantined
  entries (``tetris-write cache verify`` / ``gc``).

Corrupt or unreadable entries are treated as misses, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "ResultCache",
    "cache_disabled_by_env",
    "code_salt",
    "default_cache_dir",
    "row_digest",
]

# Bump when the entry layout (not the simulated semantics — the code
# salt covers those) changes incompatibly.  v2 added the mandatory
# per-entry payload digest.
CACHE_FORMAT_VERSION = 3

QUARANTINE_DIR = "quarantine"


def row_digest(row: dict) -> str:
    """Canonical SHA-256 of one row payload (the per-entry checksum)."""
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode("utf-8")
    ).hexdigest()


def cache_disabled_by_env() -> bool:
    """True when ``REPRO_NO_CACHE`` is set to a non-empty value."""
    return bool(os.environ.get("REPRO_NO_CACHE", ""))


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/tetris-write/results``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tetris-write" / "results"


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the ``repro`` package sources (the code-version salt).

    Hashing path-sorted (relative path, file bytes) pairs makes the salt
    stable across machines for identical sources and different for any
    source change — including to this module, which conservatively
    invalidates the store when the cache itself evolves.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def _fsync_dir(path: Path) -> None:
    """Make a rename into (or a new entry of) ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0    # entries quarantined on read (digest/format bad)

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate(),
        }


@dataclass
class ResultCache:
    """One on-disk result store rooted at ``root``.

    The store is a two-level directory of JSON entries
    (``<key[:2]>/<key>.json``) so no single directory grows unbounded.
    ``fsync`` makes every :meth:`put` survive power loss once it returns.
    """

    root: Path
    salt: str = ""
    stats: CacheStats = field(default_factory=CacheStats)
    fsync: bool = False

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if not self.salt:
            self.salt = code_salt()

    # ------------------------------------------------------------------
    # Keying.
    # ------------------------------------------------------------------
    def cell_key(
        self,
        *,
        config_json: str,
        trace_key: str,
        scheme: str,
        lane: str = "des",
    ) -> str:
        """Content address of one grid cell.

        ``config_json`` must be the canonical (sorted-keys) serialization
        of the cell's :class:`SystemConfig` so field ordering can never
        split the key space.  ``lane`` separates analytic-fastpath rows
        from DES rows: the two lanes agree only within tolerance bands,
        so a row from one must never satisfy a lookup from the other.
        """
        h = hashlib.sha256()
        for part in (str(CACHE_FORMAT_VERSION), self.salt, scheme, trace_key,
                     lane, config_json):
            h.update(part.encode())
            h.update(b"\x00")
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """Return the cached row dict for ``key``, or None on a miss.

        An entry that exists but fails validation — unparseable JSON,
        wrong format version, or a payload that no longer matches its
        embedded digest (torn write, bit rot, manual edit) — is
        quarantined rather than left in place: silently re-missing on
        every lookup hides the corruption forever, while quarantining
        surfaces it in ``tetris-write cache verify`` and lets the next
        store land clean.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except ValueError:
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._quarantine(path)
            return None
        except OSError:
            self.stats.misses += 1
            return None
        if not self._entry_valid(entry):
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return entry["row"]

    @staticmethod
    def _entry_valid(entry) -> bool:
        """Structural + integrity validation of one parsed entry."""
        return (
            isinstance(entry, dict)
            and entry.get("version") == CACHE_FORMAT_VERSION
            and isinstance(entry.get("row"), dict)
            and entry.get("sha256") == row_digest(entry["row"])
        )

    def _quarantine(self, path: Path) -> bool:
        """Move a bad entry into ``<root>/quarantine/`` (best effort)."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            return False
        return True

    def put(self, key: str, row: dict, *, meta: dict | None = None) -> None:
        """Atomically persist one cell's row (tmp file + rename).

        With :attr:`fsync` the entry is durable on return: the temp file
        is fsync'd before the rename and the directory after it (and the
        store root too when this put created the directory).
        """
        path = self._path(key)
        new_dir = self.fsync and not path.parent.is_dir()
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "meta": meta or {},
            "row": row,
            "sha256": row_digest(row),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if self.fsync:
                _fsync_dir(path.parent)
                if new_dir:
                    _fsync_dir(self.root)
        except OSError:
            # A failed store (disk full, permissions) must never kill the
            # sweep — the cell result is still returned to the caller.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Maintenance / reporting.
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def quarantined(self) -> list[Path]:
        """Entries previously moved aside by integrity checks."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_file())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def verify(self) -> dict:
        """Audit every entry: re-parse, re-hash, quarantine what fails.

        Returns a summary dict — ``checked`` entries scanned, ``ok``
        passing structural + digest validation, ``corrupt`` moved to
        quarantine this pass, ``stale_salt`` valid entries written by a
        different code version (unreachable under the current salt;
        reclaim with :meth:`gc`), and the total ``quarantined`` count.
        """
        checked = ok = corrupt = stale = 0
        for path in self.entries():
            checked += 1
            try:
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                corrupt += self._quarantine(path)
                continue
            if not self._entry_valid(entry):
                corrupt += self._quarantine(path)
                continue
            ok += 1
            if entry.get("meta", {}).get("salt", "") != self.salt:
                stale += 1
        return {
            "root": str(self.root),
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "stale_salt": stale,
            "quarantined": len(self.quarantined()),
        }

    def gc(self) -> dict:
        """Reclaim dead weight: stale-salt entries and quarantined files.

        Stale-salt entries were written by a different code version;
        their keys can never be looked up under the current salt, so
        they only cost disk.  Corrupt entries already moved aside by
        :meth:`get`/:meth:`verify` are deleted for good.
        """
        removed_stale = 0
        for path in self.entries():
            try:
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                continue  # verify()'s job, not gc's
            if (
                isinstance(entry, dict)
                and entry.get("meta", {}).get("salt", "") != self.salt
            ):
                try:
                    path.unlink()
                    removed_stale += 1
                except OSError:
                    continue
        removed_quarantined = 0
        for path in self.quarantined():
            try:
                path.unlink()
                removed_quarantined += 1
            except OSError:
                continue
        return {
            "root": str(self.root),
            "removed_stale": removed_stale,
            "removed_quarantined": removed_quarantined,
        }

    def report(self) -> dict:
        """Store-wide summary for ``tetris-write cache stats``."""
        entries = self.entries()
        total_bytes = 0
        by_scheme: dict[str, int] = {}
        by_lane: dict[str, int] = {}
        current_salt = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                continue
            meta = entry.get("meta", {})
            scheme = meta.get("scheme", "?")
            by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
            # Pre-lane entries (format v2) carried no lane tag; they can
            # only have been DES rows.
            lane = meta.get("lane", "des")
            by_lane[lane] = by_lane.get(lane, 0) + 1
            if meta.get("salt", "") == self.salt:
                current_salt += 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            "by_scheme": dict(sorted(by_scheme.items())),
            "by_lane": dict(sorted(by_lane.items())),
            "current_code_version": current_salt,
            "quarantined": len(self.quarantined()),
        }
