"""Write-ahead journal: framing, replay, rotation, compaction, close.

Pure journal mechanics -- no service, no sockets.  The crash cases a
WAL exists for are modelled directly on the files: torn tails, flipped
bits, segments left behind by a dead process.
"""

import asyncio

import pytest

from repro.service.journal import JobJournal, frame_record, parse_line
from repro.service.state import ServiceState

DIGEST = "d" * 64


def _admit(job, digest=DIGEST, **extra):
    return {
        "t": "admit", "job": job, "tenant": "t", "kind": "scenario",
        "tasks": [{"name": "tiny", "digest": digest}],
        "payloads": {digest: '{"name":"tiny"}'},
        **extra,
    }


# -- framing ------------------------------------------------------------------

def test_frame_and_parse_round_trip():
    rec = {"t": "admit", "job": "job-00001", "n": 3}
    line = frame_record(rec)
    assert line.endswith(b"\n")
    assert parse_line(line) == rec


def test_parse_rejects_flipped_bit_and_torn_line():
    line = frame_record({"t": "complete", "digest": DIGEST})
    flipped = line[:20] + bytes([line[20] ^ 0x01]) + line[21:]
    assert parse_line(flipped) is None
    for cut in (1, 8, len(line) // 2, len(line) - 2):
        assert parse_line(line[:cut]) is None
    assert parse_line(b"") is None
    assert parse_line(b"not a journal line at all\n") is None


def test_parse_rejects_non_dict_json():
    body = b"[1,2,3]"
    import zlib

    framed = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
    assert parse_line(framed) is None


# -- append / replay ----------------------------------------------------------

def test_append_flush_replay_round_trip(tmp_path):
    journal = JobJournal(tmp_path)
    journal.open()
    journal.append("admit", **{k: v for k, v in _admit("job-00001").items()
                               if k != "t"})
    journal.append("start", digest=DIGEST)
    journal.append("complete", digest=DIGEST, state="done", cached=False)
    journal.flush()
    journal.close()

    state = JobJournal.replay(tmp_path)
    assert state.records == 3
    assert state.corrupt_lines == 0
    (comp,) = state.jobs["job-00001"].computations
    assert comp.scenario_json == '{"name":"tiny"}'
    assert comp.state == "done"
    assert DIGEST not in state.inflight
    assert state.clean_close is False
    # The completed computation makes the job settled, not live.
    assert state.live_jobs() == []


def test_replay_skips_a_torn_tail_but_keeps_good_records(tmp_path):
    journal = JobJournal(tmp_path)
    journal.open()
    journal.append("admit", **{k: v for k, v in _admit("job-00001").items()
                               if k != "t"})
    journal.flush()
    journal.close()
    # A crash mid-write leaves half a line at the end of the segment.
    segments = sorted(tmp_path.glob("segment-*.ndjson"))
    with open(segments[-1], "ab") as fh:
        fh.write(frame_record({"t": "complete", "digest": DIGEST})[:-7])

    state = JobJournal.replay(tmp_path)
    assert state.records == 1
    assert state.corrupt_lines == 1
    assert state.inflight[DIGEST].state == "queued"
    assert [job.job_id for job in state.live_jobs()] == ["job-00001"]


def test_open_starts_a_new_segment_after_any_existing_one(tmp_path):
    first = JobJournal(tmp_path)
    first.open()
    first.append("admit", job="job-00001")
    first.flush()
    first.close()
    second = JobJournal(tmp_path)
    second.open()
    second.append("admit", job="job-00002")
    second.flush()
    second.close()

    names = sorted(p.name for p in tmp_path.glob("segment-*.ndjson"))
    assert names == ["segment-000001.ndjson", "segment-000002.ndjson"]
    state = JobJournal.replay(tmp_path)
    assert set(state.jobs) == {"job-00001", "job-00002"}


def test_rotation_caps_segment_size(tmp_path):
    journal = JobJournal(tmp_path, segment_max_records=2)
    journal.open()
    for i in range(6):
        journal.append("admit", job=f"job-{i:05d}")
        journal.flush()
    journal.close()
    # Three full segments plus the empty one the last rotation opened.
    assert len(list(tmp_path.glob("segment-*.ndjson"))) == 4
    assert JobJournal.replay(tmp_path).records == 6


def test_compaction_rewrites_live_state_and_drops_history(tmp_path):
    journal = JobJournal(tmp_path, segment_max_records=2)
    journal.open()
    for i in range(5):
        journal.append("admit", job=f"job-{i:05d}")
        journal.flush()
    written = journal.compact([_admit("job-00004")])
    assert written == 1
    assert journal.stats["compactions"] == 1
    assert len(list(tmp_path.glob("segment-*.ndjson"))) == 1
    assert not list(tmp_path.glob("*.tmp"))

    # The compacted journal still accepts appends (fd was reopened).
    journal.append("complete", digest=DIGEST, state="done")
    journal.flush()
    journal.close()
    state = JobJournal.replay(tmp_path)
    assert set(state.jobs) == {"job-00004"}
    assert state.jobs["job-00004"].state == "done"
    assert DIGEST not in state.inflight


def test_clean_close_settles_everything(tmp_path):
    journal = JobJournal(tmp_path)
    journal.open()
    journal.append("admit", **{k: v for k, v in _admit("job-00001").items()
                               if k != "t"})
    journal.close(clean=True)

    state = JobJournal.replay(tmp_path)
    assert state.clean_close is True
    assert state.live_jobs() == []

    # A new admission after a clean close reopens the journal's life.
    journal = JobJournal(tmp_path)
    journal.open()
    journal.append("admit", **{k: v for k, v in _admit("job-00002").items()
                               if k != "t"})
    journal.flush()
    journal.close()
    state = JobJournal.replay(tmp_path)
    assert state.clean_close is False
    assert [job.job_id for job in state.live_jobs()] == ["job-00002"]


def test_abort_drops_unflushed_records(tmp_path):
    journal = JobJournal(tmp_path)
    journal.open()
    journal.append("admit", job="job-00001")
    journal.flush()
    journal.append("admit", job="job-00002")  # never flushed
    journal.abort()
    state = JobJournal.replay(tmp_path)
    assert set(state.jobs) == {"job-00001"}


# -- replay state rules -------------------------------------------------------

def test_live_jobs_excludes_cancelled_and_terminal_slots():
    state = ServiceState()
    state.apply(_admit("job-00001", digest="a" * 64))
    state.apply(_admit("job-00002", digest="b" * 64))
    state.apply(_admit("job-00003", digest="c" * 64))
    state.apply({"t": "cancel", "job": "job-00002"})
    state.apply({"t": "complete", "digest": "c" * 64, "state": "done"})
    assert [job.job_id for job in state.live_jobs()] == ["job-00001"]


def test_land_records_attach_the_run_id():
    state = ServiceState()
    state.apply(_admit("job-00001"))
    state.apply({"t": "land", "job": "job-00001", "run_id": "service-abc"})
    assert state.jobs["job-00001"].run_id == "service-abc"


def test_parent_format_records_replay_to_the_expected_live_jobs(tmp_path):
    """Records framed with exactly the field sets the journal has always
    written -- the format is unchanged, so an old journal still boots."""
    a, b, c, w = "a" * 64, "b" * 64, "c" * 64, "e" * 64
    records = [
        {"t": "admit", "ts": 1.0, "job": "job-00001", "tenant": "x",
         "kind": "sweep", "submitted": 1.0, "warm": 1, "coalesced": 0,
         "tasks": [{"name": "p0", "digest": a}, {"name": "p1", "digest": b},
                   {"name": "p2", "digest": w, "state": "done",
                    "cached": True, "artifact": "f" * 64}],
         "payloads": {a: "{}", b: "{}"}, "key": "k-1"},
        {"t": "admit", "ts": 2.0, "job": "job-00002", "tenant": "y",
         "kind": "scenario", "submitted": 2.0, "warm": 0, "coalesced": 1,
         "tasks": [{"name": "p1", "digest": b}], "payloads": {b: "{}"}},
        {"t": "admit", "ts": 3.0, "job": "job-00003", "tenant": "z",
         "kind": "scenario", "submitted": 3.0, "warm": 0, "coalesced": 0,
         "tasks": [{"name": "q", "digest": c}], "payloads": {c: "{}"}},
        {"t": "start", "ts": 4.0, "digest": a},
        {"t": "cancel", "ts": 5.0, "job": "job-00001"},
        {"t": "complete", "ts": 6.0, "digest": c, "state": "done",
         "artifact": "9" * 64, "error": None, "seconds": 0.5,
         "cached": False},
        {"t": "land", "ts": 7.0, "job": "job-00003", "run_id": "service-1"},
    ]
    journal = JobJournal(tmp_path)
    journal.open()
    journal.close()
    segment = next(tmp_path.glob("segment-*.ndjson"))
    segment.write_bytes(b"".join(frame_record(rec) for rec in records))

    state = JobJournal.replay(tmp_path)
    assert state.records == len(records) and state.corrupt_lines == 0
    assert state.jobs["job-00003"].run_id == "service-1"
    state.boot()
    # job 1's running point survives its cancel; its queued point b is
    # abandoned but job 2 still waits on it; job 3 finished.
    assert [job.job_id for job in state.live_jobs()] == [
        "job-00001", "job-00002"
    ]
    job1 = state.jobs["job-00001"]
    assert [t["state"] for t in job1.document()["tasks"]] == [
        "queued", "cancelled", "done"
    ]
    assert list(state.inflight) == [a, b]
    assert state.inflight[b].jobs == [state.jobs["job-00002"]]
    assert state.outstanding == {"x": 1, "y": 1}
    assert state.idem == {"k-1": "job-00001"}
    assert state.next_id == 4


def test_a_repeated_admit_keeps_the_first():
    """Old segments a crash left beside a compaction snapshot replay the
    same job twice; the first admission stands, counted once."""
    state = ServiceState()
    state.apply(_admit("job-00001"))
    state.apply(_admit("job-00001"))
    assert state.inflight[DIGEST].jobs == [state.jobs["job-00001"]]
    assert state.outstanding == {"t": 1}


# -- group commit -------------------------------------------------------------

def test_concurrent_commits_share_one_fsync(tmp_path):
    async def main():
        journal = JobJournal(tmp_path, fsync_interval=5.0)
        journal.open()
        flusher = asyncio.get_running_loop().create_task(
            journal.run_flusher()
        )
        try:
            for i in range(3):
                journal.append("admit", job=f"job-{i:05d}")
            await asyncio.gather(*[journal.commit() for _ in range(3)])
        finally:
            flusher.cancel()
            try:
                await flusher
            except asyncio.CancelledError:
                pass
        journal.close()
        return journal.stats

    stats = asyncio.run(main())
    assert stats["records"] == 3
    assert stats["fsync_batches"] == 1  # one group commit for all three
    assert JobJournal.replay(tmp_path).records == 3


def test_commit_on_an_idle_journal_returns_immediately(tmp_path):
    async def main():
        journal = JobJournal(tmp_path)
        journal.open()
        await journal.commit()  # nothing buffered: no flusher needed
        journal.close()
        return journal.stats

    stats = asyncio.run(main())
    assert stats["fsync_batches"] == 0


def test_full_batch_triggers_a_flush_signal(tmp_path):
    async def main():
        journal = JobJournal(tmp_path, fsync_interval=5.0, fsync_batch=4)
        journal.open()
        flusher = asyncio.get_running_loop().create_task(
            journal.run_flusher()
        )
        try:
            for i in range(4):
                journal.append("admit", job=f"job-{i:05d}")
            for _ in range(100):
                if journal.stats["records"] == 4:
                    break
                await asyncio.sleep(0.01)
        finally:
            flusher.cancel()
            try:
                await flusher
            except asyncio.CancelledError:
                pass
        journal.close()
        return journal.stats

    stats = asyncio.run(main())
    assert stats["records"] == 4
    assert stats["fsync_batches"] == 1
