"""Concurrent writers on one cold fingerprint: one entry, identical
bits.

These tests pin the two layers the ``repro.serve`` scheduler's
coalescing relies on:

* the **store** layer — two threads or processes computing the same
  cold fingerprint concurrently leave exactly one entry on disk, and
  both sides load bit-identical values afterwards (deterministic
  results plus atomic writes: whichever complete write wins, it is the
  same bytes);
* the **pending registry** — within one process, the first claimant of
  an in-flight fingerprint owns the computation and all later
  claimants subscribe to the same cell, so concurrent identical
  requests cost one simulation, not N.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from helpers import result_digest

from repro.experiments.runner import run_matrix
from repro.store import ArtifactStore, PendingRegistry
from repro.store.serialize import dump_result, load_result

BENCHES = ("gzip",)
KWARGS = dict(widths=(8,), archs=("stream",), layouts=(True,),
              instructions=6_000, warmup=2_000, scale=0.3)


# ----------------------------------------------------------------------
# store-level dedup
# ----------------------------------------------------------------------
def test_racing_thread_puts_one_object_identical_loads(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    fp = "ab" * 32
    data = b"payload-bytes" * 100
    barrier = threading.Barrier(4)
    oids = []

    def writer():
        barrier.wait()
        oids.append(store.put("result", fp, data))

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(set(oids)) == 1
    assert os.listdir(os.path.join(store.entries_dir, "result")) == [fp]
    assert store.get("result", fp) == data
    assert store.verify() == {"checked": 1, "corrupt": [], "unreadable": []}


def _matrix_child(root: str, conn) -> None:
    matrix = run_matrix(BENCHES, **KWARGS, store=root)
    digests = {
        repr(spec): result_digest(res) for spec, res in
        matrix.results.items()
    }
    conn.send(digests)
    conn.close()


def test_two_processes_same_cold_cell_one_object(tmp_path):
    """Two processes race the same cold cell end to end.

    Both simulate (cross-process coalescing is out of scope — the
    registry is per-process), but the store must end up with exactly
    one intact result entry per cell, and both processes' results must
    be bit-identical to each other and to a fresh local load from the
    store.
    """
    root = str(tmp_path / "store")
    ctx = multiprocessing.get_context()
    pipes, procs = [], []
    for _ in range(2):
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_matrix_child, args=(root, child))
        proc.start()
        child.close()
        pipes.append(parent)
        procs.append(proc)
    digests = [pipe.recv() for pipe in pipes]
    for proc in procs:
        proc.join(timeout=300)
        assert proc.exitcode == 0
    assert digests[0] == digests[1]

    store = ArtifactStore(root)
    stats = store.stats()
    n_cells = 1  # 1 bench x 1 layout x 1 width x 1 arch
    assert stats["kinds"]["result"]["entries"] == n_cells
    assert store.verify() == {"checked": n_cells, "corrupt": [],
                              "unreadable": []}
    # The winning write is readable and matches what both runs computed.
    warm = run_matrix(BENCHES, **KWARGS, store=root)
    assert {repr(s): result_digest(r) for s, r in warm.results.items()} \
        == digests[0]


def test_result_roundtrip_preserves_every_compared_field(tmp_path):
    """dump -> load of one result loses nothing bit-identity compares."""
    matrix = run_matrix(BENCHES, **KWARGS)
    (result,) = matrix.results.values()
    loaded = load_result(dump_result(result))
    assert result_digest(loaded) == result_digest(result)
    assert loaded == result


# ----------------------------------------------------------------------
# pending registry semantics (what the serve scheduler relies on)
# ----------------------------------------------------------------------
def test_registry_first_claim_owns_rest_subscribe():
    reg = PendingRegistry()
    cell, owner = reg.claim("fp-1")
    assert owner and cell.subscribers == 1
    cell2, owner2 = reg.claim("fp-1")
    assert not owner2 and cell2 is cell and cell.subscribers == 2
    assert reg.coalesced == 1
    assert reg.depth() == 1
    reg.resolve("fp-1", 42)
    assert cell.settled
    assert cell.outcome() == ("ok", 42, None)
    assert reg.depth() == 0
    # A new claim after settlement starts a fresh computation.
    cell3, owner3 = reg.claim("fp-1")
    assert owner3 and cell3 is not cell


def test_registry_resolve_wakes_concurrent_waiters():
    reg = PendingRegistry()
    cell, owner = reg.claim("fp-x")
    assert owner
    seen = []

    def waiter():
        c, is_owner = reg.claim("fp-x")
        assert not is_owner
        assert c.wait(timeout=30)
        seen.append(c.outcome())
        reg.release("fp-x", c)

    threads = [threading.Thread(target=waiter) for _ in range(3)]
    for t in threads:
        t.start()
    while reg.coalesced < 3:  # all subscribed
        threading.Event().wait(0.01)
    cell.mark_started()
    reg.resolve("fp-x", "value")
    for t in threads:
        t.join(timeout=30)
    assert seen == [("ok", "value", None)] * 3


def test_registry_abandoned_unstarted_cell_is_dropped():
    reg = PendingRegistry()
    cell, owner = reg.claim("fp-a")
    assert owner
    assert reg.release("fp-a", cell) == 0
    assert cell.abandoned()
    # The registry forgot it: the next claimant owns a fresh cell.
    assert reg.depth() == 0
    cell2, owner2 = reg.claim("fp-a")
    assert owner2 and cell2 is not cell


def test_registry_started_cell_survives_abandonment():
    reg = PendingRegistry()
    cell, _ = reg.claim("fp-b")
    cell.mark_started()
    reg.release("fp-b", cell)
    assert not cell.abandoned()  # running work still resolves
    assert reg.depth() == 1
    # A late identical request coalesces onto the still-running cell.
    cell2, owner2 = reg.claim("fp-b")
    assert not owner2 and cell2 is cell
    reg.resolve("fp-b", 7)
    assert cell2.outcome() == ("ok", 7, None)


def test_registry_failure_propagates_to_subscribers():
    reg = PendingRegistry()
    cell, _ = reg.claim("fp-f")
    sub, _ = reg.claim("fp-f")
    reg.fail("fp-f", "boom")
    assert sub.wait(timeout=5)
    assert sub.outcome() == ("failed", None, "boom")
