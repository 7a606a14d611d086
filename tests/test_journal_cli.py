"""Sweep-journal code salts: stale-journal detection on resume.

* ``SweepEngine.run(resume=True)`` against a journal written by a
  different code version fails fast with a "stale journal" error
  instead of silently re-executing everything;
* a journal that also holds current-salt records still resumes;
* the salt stamped in each record's meta survives a reload.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel import StaleJournalError, SweepEngine, SweepJournal
from repro.parallel.resultcache import code_salt

SCHEMES = ("dcw",)
WORKLOADS = ("dedup", "vips")
REQUESTS = 60


def build_journal(path) -> SweepJournal:
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False, journal=path
    )
    eng.run(SCHEMES, WORKLOADS).raise_errors()
    return SweepJournal(path)


# ----------------------------------------------------------------------
# Stale-journal detection on resume.
# ----------------------------------------------------------------------
def test_resume_with_stale_journal_fails_with_actionable_error(tmp_path):
    path = tmp_path / "stale.jsonl"
    journal = SweepJournal(path)
    # A journal written by a different code version: every key was
    # derived from a different salt, so nothing the current planner
    # computes can match.
    journal.append("old-key-1", {"scheme": "dcw"}, meta={"salt": "f" * 16})
    journal.append("old-key-2", {"scheme": "dcw"}, meta={"salt": "f" * 16})

    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False, journal=path
    )
    with pytest.raises(
        StaleJournalError,
        match=r"stale journal \(code changed\); start a fresh journal",
    ) as excinfo:
        eng.run(SCHEMES, WORKLOADS, resume=True)
    assert "f" * 16 in str(excinfo.value)      # what the journal holds
    assert code_salt() in str(excinfo.value)   # what the code hashes to


def test_resume_tolerates_stale_records_when_current_ones_match(tmp_path):
    path = tmp_path / "mixed.jsonl"
    n_records = len(build_journal(path).load())
    SweepJournal(path).append(
        "leftover-old-key", {"scheme": "dcw"}, meta={"salt": "f" * 16}
    )

    res = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False, journal=path
    ).run(SCHEMES, WORKLOADS, resume=True)
    res.raise_errors()
    assert res.stats.resumed == n_records  # current-salt records all match
    assert res.stats.executed == 0


def test_journal_roundtrip_preserves_meta_and_salts(tmp_path):
    path = tmp_path / "meta.jsonl"
    journal = SweepJournal(path)
    journal.append("k1", {"x": 1}, meta={"salt": "aaaa", "scheme": "dcw"})
    journal.append("k2", {"x": 2}, meta={"salt": "bbbb"})

    reloaded = SweepJournal(path)
    reloaded.load()
    assert reloaded.salts == {"aaaa", "bbbb"}
    raw = {rec["key"]: rec for rec in map(json.loads, path.read_text().splitlines())}
    assert raw["k1"]["meta"] == {"salt": "aaaa", "scheme": "dcw"}
    assert all("meta" in rec for rec in raw.values())
