"""Unit tests for the flight recorder (repro.obs.events)."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro import obs
from repro.common import warnonce
from repro.common.warnonce import warn_once
from repro.obs.events import FlightRecorder, read_events, tail_events


def _ev(i: int) -> dict:
    return {"ev": "tick", "ts": 1000.0 + i, "n": i}


def test_record_roundtrip_memory_and_disk(tmp_path):
    path = str(tmp_path / "r.events")
    rec = FlightRecorder(path)
    for i in range(5):
        rec.record(_ev(i))
    assert len(rec) == 5
    assert [e["n"] for e in rec.events()] == list(range(5))
    assert [e["n"] for e in read_events(path)] == list(range(5))
    assert not rec.degraded


def test_memory_ring_is_bounded(tmp_path):
    rec = FlightRecorder(str(tmp_path / "r.events"), capacity=3)
    for i in range(10):
        rec.record(_ev(i))
    assert [e["n"] for e in rec.events()] == [7, 8, 9]
    # The file keeps everything until max_bytes forces rotation.
    assert len(read_events(str(tmp_path / "r.events"))) == 10


def test_reader_tolerates_torn_tail_and_alien_lines(tmp_path):
    path = tmp_path / "torn.events"
    lines = [json.dumps(_ev(i)) for i in range(3)]
    blob = "\n".join(lines) + "\n"
    blob += "not json at all\n"                  # alien line
    blob += '["a", "json", "array"]\n'           # non-object
    blob += '{"no_ev_field": 1}\n'               # object without "ev"
    blob += json.dumps(_ev(3))[:10]              # torn final line
    path.write_text(blob)
    events = read_events(str(path))
    assert [e["n"] for e in events] == [0, 1, 2]


def test_read_events_missing_file_is_empty(tmp_path):
    assert read_events(str(tmp_path / "absent.events")) == []


def test_tail_events(tmp_path):
    path = str(tmp_path / "t.events")
    rec = FlightRecorder(path)
    for i in range(6):
        rec.record(_ev(i))
    assert [e["n"] for e in tail_events(path, 2)] == [4, 5]
    assert tail_events(path, 0) == []


def test_on_disk_ring_rotates_at_max_bytes(tmp_path):
    path = str(tmp_path / "ring.events")
    rec = FlightRecorder(path, capacity=5, max_bytes=512)
    for i in range(200):
        rec.record(_ev(i))
    assert not rec.degraded
    size = os.path.getsize(path)
    # Bounded: the file never grows past max_bytes plus one line.
    assert size <= 512 + 80
    events = read_events(path)
    # The newest event always survives rotation.
    assert events[-1]["n"] == 199


def test_unwritable_path_degrades_to_memory_only(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir"
    rec = FlightRecorder(str(missing_dir / "r.events"))
    rec.record(_ev(0))
    rec.record(_ev(1))
    assert rec.degraded
    assert len(rec) == 2  # the in-memory ring still works


def test_unserializable_event_is_skipped_on_disk(tmp_path):
    path = str(tmp_path / "r.events")
    rec = FlightRecorder(path)
    rec.record({"ev": "odd", "obj": object()})  # default=str handles it
    rec.record(_ev(1))
    events = read_events(path)
    assert [e["ev"] for e in events] == ["odd", "tick"]


def test_record_event_fans_out_to_attached_sinks(tmp_path):
    rec = obs.attach(FlightRecorder(str(tmp_path / "a.events")))
    try:
        obs.record_event("ping", n=1)
        events = rec.events()
        assert len(events) == 1
        assert events[0]["ev"] == "ping"
        assert events[0]["n"] == 1
        assert isinstance(events[0]["ts"], float)
    finally:
        obs.detach(rec)
    obs.record_event("after-detach")
    assert len(rec) == 1


def test_sweep_recorder_honors_env(tmp_path, monkeypatch):
    monkeypatch.setenv(obs.OBS_ENV, "0")
    assert obs.sweep_recorder(str(tmp_path / "x.events")) is None
    monkeypatch.delenv(obs.OBS_ENV)
    rec = obs.sweep_recorder(str(tmp_path / "x.events"))
    try:
        assert rec is not None
        assert rec in obs.attached_recorders()
    finally:
        obs.detach(rec)


@pytest.mark.parametrize(
    "case", ["recorder", "sinks", "instrument", "registry", "warn_once"])
def test_forked_child_records_while_a_parent_thread_holds_the_lock(
        tmp_path, case):
    """fork() copies a lock another thread holds as held, with no owner
    in the child to release it; the serve daemon forks pool workers
    while its handler threads record events, update metrics and warn."""
    path = str(tmp_path / "r.events")
    rec = obs.attach(FlightRecorder(path))
    # Each lock, and a call a forked child makes that takes it.
    lock, child_call = {
        "recorder": (rec._lock, lambda: rec.record(_ev(0))),
        "sinks": (obs._SINKS_LOCK, lambda: obs.record_event("tick", n=0)),
        "instrument": (obs.CORE_CELLS._lock,
                       lambda: obs.CORE_CELLS.inc(engine="ev8")),
        "registry": (obs.registry()._lock, obs.render_prometheus),
        "warn_once": (warnonce._LOCK,
                      lambda: warn_once("test.fork", "forked child")),
    }[case]
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with lock:
            held.set()
            release.wait(30)

    try:
        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(30)
        child = multiprocessing.get_context("fork").Process(target=child_call)
        try:
            child.start()
        finally:
            release.set()
            holder.join(30)
        child.join(10)
        if child.exitcode is None:
            child.kill()
            child.join()
    finally:
        obs.detach(rec)
    assert child.exitcode == 0
    if case in ("recorder", "sinks"):
        assert [e["n"] for e in read_events(path)] == [0]
