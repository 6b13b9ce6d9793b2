"""Federated store: wire ops, the client's store ops, tiered
read-through, background replication, corruption mirrors,
anti-entropy sync.

The daemon-backed tests spin a real in-process ``ExperimentServer``
(socket and all); the corruption tests tear real entry files and
assert the remote tier degrades to clean misses that self-heal on the
next replication pass — never to wrong bytes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from helpers import free_port, serve_once

from repro.cluster.health import DEAD, HEALTHY, HealthPolicy
from repro.exec.faults import FaultSpec, active_plan
from repro.experiments.runner import run_matrix
from repro.serve import protocol
from repro.serve.client import (
    ServeClient,
    ServeError,
    StoreIntegrityError,
    StorePeerUnusable,
    StoreVersionSkew,
)
from repro.serve.server import ExperimentServer
from repro.store.cache import ArtifactCache
from repro.store.remote import parse_peers, version_salt
from repro.store.remote import ops
from repro.store.remote.sync import sync_with_peers
from repro.store.remote.tiered import TieredStore
from repro.store.store import ArtifactStore

FP = "ab" * 32
FP2 = "cd" * 32
FP3 = "ef" * 32

#: Breakers that trip fast and probe fast — unit-test scale.
FAST_HEALTH = HealthPolicy(
    suspect_after=1, dead_after=2,
    probe_backoff=0.05, probe_backoff_max=0.1, probe_jitter=0.0,
)


def _tear_entry(store: ArtifactStore, kind: str, fp: str) -> None:
    """Truncate the entry file of one key."""
    path = store._entry_path(kind, fp)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])


@pytest.fixture
def peer(tmp_path):
    """A real daemon with a store, plus direct disk access to it."""
    root = str(tmp_path / "peer-store")
    server = ExperimentServer(store_root=root, max_workers=1)
    server.start()
    host, port = server.address
    handle = SimpleNamespace(
        server=server,
        address=f"{host}:{port}",
        store=ArtifactStore(root),
    )
    yield handle
    server.stop(timeout=30)


@pytest.fixture
def local(tmp_path):
    return ArtifactStore(str(tmp_path / "local-store"))


# ----------------------------------------------------------------------
# parse_peers
# ----------------------------------------------------------------------
class TestParsePeers:
    def test_none_and_empty(self):
        assert parse_peers(None) == []
        assert parse_peers("") == []
        assert parse_peers([]) == []
        assert parse_peers(" , ,") == []

    def test_comma_string_and_sequence_agree(self):
        want = ["10.0.0.1:4000", "10.0.0.2:4001"]
        assert parse_peers("10.0.0.1:4000, 10.0.0.2:4001") == want
        assert parse_peers(("10.0.0.1:4000", "10.0.0.2:4001")) == want

    def test_duplicates_dropped_order_kept(self):
        assert parse_peers("b:2,a:1,b:2") == ["b:2", "a:1"]

    def test_junk_raises(self):
        with pytest.raises(ValueError, match="bad address 'x:y'"):
            parse_peers("a:1,x:y")
        with pytest.raises(ValueError):
            parse_peers("not an address")


# ----------------------------------------------------------------------
# server-side ops (no sockets)
# ----------------------------------------------------------------------
class TestOps:
    def _msg(self, op, **fields):
        message = {"op": op, "version": version_salt()}
        message.update(fields)
        return message

    def test_no_store_is_typed(self):
        out = ops.handle(None, self._msg("store_get", kind="result", fp=FP))
        assert out["ok"] is False and out["error"] == "no_store"

    def test_missing_version_is_protocol_error(self, local):
        with pytest.raises(protocol.ProtocolError, match="version"):
            ops.handle(local, {"op": "store_get", "kind": "result",
                               "fp": FP})

    def test_version_skew_carries_our_salt(self, local):
        out = ops.handle(local, {"op": "store_has", "version": "other",
                                 "kind": "result", "fps": []})
        assert out["error"] == "version_skew"
        assert out["version"] == version_salt()

    def test_has_batched(self, local):
        local.put("result", FP, b"one")
        local.put("result", FP2, b"two")
        out = ops.handle(local, self._msg(
            "store_has", kind="result", fps=[FP, FP2, FP3]))
        assert set(out["oids"]) == {FP, FP2}
        assert out["oids"][FP] == hashlib.sha256(b"one").hexdigest()

    def test_has_null_fps_lists_the_kind(self, local):
        local.put("result", FP, b"one")
        local.put("trace", FP2, b"two")
        out = ops.handle(local, self._msg(
            "store_has", kind="result", fps=None))
        assert list(out["oids"]) == [FP]

    def test_has_null_fps_reads_only_its_kind(self, local, monkeypatch):
        """A full listing of one kind reads that kind's entries alone,
        however many entries the other kinds hold."""
        oids = {}
        for i in range(5):
            fp = f"{i:064x}"
            oids[fp] = local.put("result", fp, b"result %d" % i)
        for i in range(50):
            local.put("trace", f"{i + 100:064x}", b"trace %d" % i)
        reads = []
        read = local.read

        def counted(kind, fp):
            reads.append(kind)
            return read(kind, fp)

        monkeypatch.setattr(local, "read", counted)
        out = ops.handle(local, self._msg(
            "store_has", kind="result", fps=None))
        assert out["oids"] == oids
        assert reads == ["result"] * 5

    def test_has_null_fps_unknown_or_malformed_kind_is_empty(
            self, local, tmp_path):
        local.put("result", FP, b"one")
        # A well-formed entry file one level above the entries tree:
        # a kind that climbs out of the tree must not list it.
        outside = os.path.join(local.root, "evil")
        os.makedirs(outside)
        with open(local._entry_path("result", FP), "rb") as src, \
                open(os.path.join(outside, FP), "wb") as dst:
            dst.write(src.read())
        for kind in ("nope", "../evil", "result/../../evil"):
            out = ops.handle(local, self._msg(
                "store_has", kind=kind, fps=None))
            assert out["ok"] and out["oids"] == {}, kind

    def test_get_roundtrip(self, local):
        oid = local.put("result", FP, b"payload", meta={"n": 1})
        out = ops.handle(local, self._msg("store_get", kind="result",
                                          fp=FP))
        assert out["found"] and out["oid"] == oid
        assert base64.b64decode(out["data"]) == b"payload"
        assert out["meta"] == {"n": 1}

    def test_get_missing_is_a_miss(self, local):
        out = ops.handle(local, self._msg("store_get", kind="result",
                                          fp=FP))
        assert out["ok"] and out["found"] is False

    def test_get_torn_object_is_a_miss_never_a_lie(self, local):
        local.put("result", FP, b"x" * 1000)
        _tear_entry(local, "result", FP)
        out = ops.handle(local, self._msg("store_get", kind="result",
                                          fp=FP))
        assert out["ok"] and out["found"] is False

    def test_put_roundtrip(self, local):
        oid = hashlib.sha256(b"pushed").hexdigest()
        out = ops.handle(local, self._msg(
            "store_put", kind="result", fp=FP, oid=oid,
            data=base64.b64encode(b"pushed").decode(), meta={"m": 2}))
        assert out["ok"] and out["oid"] == oid
        assert local.get("result", FP) == b"pushed"
        assert local.get_entry("result", FP)["meta"] == {"m": 2}

    def test_put_oid_mismatch_is_integrity(self, local):
        out = ops.handle(local, self._msg(
            "store_put", kind="result", fp=FP, oid="0" * 64,
            data=base64.b64encode(b"pushed").decode()))
        assert out["error"] == "integrity"
        assert local.get("result", FP) is None

    def test_put_undecodable_payload_is_integrity(self, local):
        out = ops.handle(local, self._msg(
            "store_put", kind="result", fp=FP, oid="0" * 64,
            data="!!! not base64 !!!"))
        assert out["error"] == "integrity"

    def test_bad_kind_is_protocol_error(self, local):
        with pytest.raises(protocol.ProtocolError, match="kind"):
            ops.handle(local, self._msg("store_get", kind="", fp=FP))


# ----------------------------------------------------------------------
# the client's store ops <-> daemon over a real socket
# ----------------------------------------------------------------------
def _client(address, **kwargs):
    return ServeClient.at(address, connect_retries=0, **kwargs)


class TestClientServer:
    def test_hello_learns_frame_limit_and_version(self, peer):
        client = _client(peer.address)
        response = client.hello()
        assert response["ok"]
        assert client.max_frame == protocol.MAX_LINE_BYTES
        assert response["store_version"] == version_salt()

    def test_put_get_has_roundtrip(self, peer):
        client = _client(peer.address)
        oid = client.store_put("result", FP, b"federated", meta={"k": 1})
        assert peer.store.get("result", FP) == b"federated"
        assert client.store_has("result", [FP, FP2]) == {FP: oid}
        got = client.store_get("result", FP)
        assert got == (oid, b"federated", {"k": 1})
        assert client.store_get("result", FP2) is None

    def test_traversal_keys_are_bad_requests(self, peer, tmp_path):
        """Every store op refuses a kind or fp that is not a plain name
        or a hex digest before it can name a path: nothing lands
        outside the peer's store, or inside it."""
        client = _client(peer.address)
        data = b"outside"
        for bad in ("../x", "../../x", "../../../x"):
            for kind, fp in ((bad, FP), ("result", bad)):
                for message in (
                    {"op": "store_put", "kind": kind, "fp": fp,
                     "oid": hashlib.sha256(data).hexdigest(),
                     "data": base64.b64encode(data).decode(), "meta": {}},
                    {"op": "store_get", "kind": kind, "fp": fp},
                    {"op": "store_has", "kind": kind, "fps": [fp]},
                ):
                    message["version"] = version_salt()
                    with pytest.raises(ServeError,
                                       match="bad_request"):
                        client.request(message)
        assert set(os.listdir(tmp_path)) <= {"peer-store"}
        assert list(peer.store.iter_index()) == []

    def test_version_skew_is_typed_with_peer_salt(self, peer):
        client = _client(peer.address, version="bogus")
        with pytest.raises(StoreVersionSkew) as err:
            client.store_get("result", FP)
        assert err.value.peer_version == version_salt()

    def test_storeless_daemon_is_unusable(self):
        with ExperimentServer(max_workers=1) as server:
            host, port = server.address
            client = _client(f"{host}:{port}")
            with pytest.raises(StorePeerUnusable):
                client.store_get("result", FP)

    def test_net_garbage_fault_is_transport(self, peer):
        peer.store.put("result", FP, b"payload")
        client = _client(peer.address)
        # Garble the client's own store_get request frame: the daemon
        # answers bad_request, which is a plain ServeError.
        with active_plan(FaultSpec("net_garbage", match="store_get",
                                   times=1)):
            with pytest.raises(ServeError, match="bad_request") as err:
                client.store_get("result", FP)
        assert type(err.value) is ServeError
        # The plan is spent: the very next call works.
        assert client.store_get("result", FP)[1] == b"payload"

    def test_lying_peer_payload_is_integrity(self):
        # A peer that serves bytes which do not hash to the claimed
        # oid: the client must refuse them, typed, before they are
        # ever visible.
        port = serve_once(json.dumps({
            "ok": True, "op": "store_get", "kind": "result", "fp": FP,
            "found": True, "oid": "0" * 64, "size": 4,
            "meta": {}, "data": base64.b64encode(b"evil").decode(),
        }).encode() + b"\n")
        client = _client(f"127.0.0.1:{port}")
        with pytest.raises(StoreIntegrityError, match="hashes to"):
            client.store_get("result", FP)

    def test_undecodable_payload_is_integrity(self):
        port = serve_once(json.dumps({
            "ok": True, "op": "store_get", "kind": "result", "fp": FP,
            "found": True, "oid": "0" * 64, "size": 4,
            "meta": {}, "data": "!!! not base64 !!!",
        }).encode() + b"\n")
        client = _client(f"127.0.0.1:{port}")
        with pytest.raises(StoreIntegrityError, match="undecodable"):
            client.store_get("result", FP)

    def test_oversized_put_refused_client_side(self, peer):
        client = _client(peer.address)
        client.max_frame = 1024  # as if hello() learned a small cap
        with pytest.raises(ServeError, match="frame limit"):
            client.store_put("result", FP, b"x" * 4096)
        assert peer.store.get("result", FP) is None

    def test_oversized_put_bounces_with_typed_error(self, tmp_path):
        # Against a daemon that actually enforces a small frame cap
        # (and a client that never learned it): the wire answers the
        # typed frame_too_large error, not a hang or a cut connection.
        root = str(tmp_path / "capped-store")
        with ExperimentServer(store_root=root, max_workers=1,
                              max_frame_bytes=2048) as server:
            host, port = server.address
            client = _client(f"{host}:{port}")
            with pytest.raises(ServeError, match="frame_too_large"):
                client.store_put("result", FP, b"x" * 8192)


# ----------------------------------------------------------------------
# TieredStore: read-through, background replication, degradation
# ----------------------------------------------------------------------
class TestTieredStore:
    def _tier(self, tmp_path, peers, **kwargs):
        kwargs.setdefault("health_policy", FAST_HEALTH)
        return TieredStore(str(tmp_path / "tier"), peers, **kwargs)

    def test_no_peers_behaves_like_plain_store(self, tmp_path):
        tier = self._tier(tmp_path, None)
        assert tier.peers == ()
        tier.put("result", FP, b"solo")
        assert tier.get("result", FP) == b"solo"
        assert tier.get("result", FP2) is None
        assert tier.remote_stats()["peers"] == []

    def test_read_through_fills_locally(self, peer, tmp_path):
        oid = peer.store.put("result", FP, b"remote bytes", {"m": 1})
        tier = self._tier(tmp_path, peer.address)
        assert tier.get("result", FP) == b"remote bytes"
        assert tier.peers[0].hits == 1
        # The fill landed through the atomic-put path: a plain store
        # over the same root serves it with the same oid and meta.
        landed = ArtifactStore(tier.root)
        assert landed.get("result", FP) == b"remote bytes"
        entry = landed.get_entry("result", FP)
        assert entry["oid"] == oid and entry["meta"] == {"m": 1}
        # Second read is local: no second remote hit.
        assert tier.get("result", FP) == b"remote bytes"
        assert tier.peers[0].hits == 1

    def test_write_behind_replicates(self, peer, tmp_path):
        tier = self._tier(tmp_path, peer.address)
        # A slow link: the put returns without waiting on the peer.
        with active_plan(FaultSpec("net_delay", match="store_put",
                                   times=1, seconds=1.0)):
            started = time.monotonic()
            tier.put("result", FP, b"local first", {"m": 2})
            assert time.monotonic() - started < 0.5
            assert peer.store.get("result", FP) is None  # not yet pushed
            assert tier.flush_replication(timeout=10)
        assert peer.store.get("result", FP) == b"local first"
        assert peer.store.get_entry("result", FP)["meta"] == {"m": 2}
        assert tier.peers[0].replicated == 1
        assert tier.remote_stats()["replication"] == {"backlog": 0,
                                                      "dropped": 0}

    def test_dropped_push_stays_pending_until_delivered(self, peer,
                                                        tmp_path):
        """A push the link drops leaves its key pending, not lost: the
        flush says so, and a later pass delivers it."""
        # Trip on the first failure and stay tripped for a second, so
        # the flush's pass cannot retry before the assertions run.
        policy = HealthPolicy(dead_after=1, probe_backoff=1.0,
                              probe_jitter=0.0)
        tier = self._tier(tmp_path, peer.address, health_policy=policy)
        with active_plan(FaultSpec("net_drop", match="store_put",
                                   times=1)):
            tier.put("result", FP, b"dropped once")
            assert not tier.flush_replication(timeout=10)
        assert tier.peers[0].errors == 1
        assert tier.remote_stats()["replication"] == {"backlog": 1,
                                                      "dropped": 0}
        assert peer.store.get("result", FP) is None
        time.sleep(policy.probe_backoff)
        assert tier.flush_replication(timeout=10)
        assert peer.store.get("result", FP) == b"dropped once"
        assert tier.peers[0].replicated == 1

    def test_puts_racing_the_pusher_all_arrive(self, peer, tmp_path):
        """Four threads put while the pusher drains: no key is lost
        between a put and a pass, and none is pushed twice."""
        tier = self._tier(tmp_path, peer.address)
        fps = [f"{i:064x}" for i in range(64)]

        def put_all(part):
            for fp in part:
                tier.put("result", fp, fp.encode())

        threads = [threading.Thread(target=put_all, args=(fps[k::4],))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tier.flush_replication(timeout=30)
        assert {fp for _kind, fp, _e in peer.store.iter_index()} == set(fps)
        assert tier.peers[0].replicated == len(fps)
        tier.close(timeout=10)
        assert tier.remote_stats()["replication"] == {"backlog": 0,
                                                      "dropped": 0}

    def test_put_after_close_counts_as_dropped(self, peer, tmp_path):
        """A put on a closed tier lands locally, is not replicated, and
        says so: ``dropped`` counts it and a warning fires."""
        tier = self._tier(tmp_path, peer.address)
        tier.put("result", FP, b"before close")
        tier.close(timeout=10)
        assert peer.store.get("result", FP) == b"before close"
        with pytest.warns(RuntimeWarning, match="after close"):
            tier.put("result", FP2, b"after close")
        assert tier.get("result", FP2) == b"after close"
        assert tier.remote_stats()["replication"] == {"backlog": 0,
                                                      "dropped": 1}
        assert peer.store.get("result", FP2) is None

    def test_torn_remote_object_is_a_clean_miss_then_self_heals(
            self, peer, tmp_path):
        # The peer's entry file is torn on disk.
        peer.store.put("result", FP, b"y" * 1000)
        _tear_entry(peer.store, "result", FP)
        tier = self._tier(tmp_path, peer.address)
        # Clean miss — no exception, no wrong bytes, no health strike.
        assert tier.get("result", FP) is None
        assert tier.peers[0].misses == 1
        assert tier.peers[0].health.state == HEALTHY
        # "Recompute" locally and let the pusher re-put: the peer's
        # torn entry is healed by its own store.put path.
        tier.put("result", FP, b"y" * 1000)
        assert tier.flush_replication(timeout=10)
        assert peer.store.get("result", FP) == b"y" * 1000

    def test_lying_peer_quarantines_without_health_strike(self, tmp_path):
        port = serve_once(json.dumps({
            "ok": True, "op": "store_get", "kind": "result", "fp": FP,
            "found": True, "oid": "0" * 64, "size": 4,
            "meta": {}, "data": base64.b64encode(b"evil").decode(),
        }).encode() + b"\n")
        tier = self._tier(tmp_path, f"127.0.0.1:{port}")
        assert tier.get("result", FP) is None  # miss, never wrong bytes
        peer = tier.peers[0]
        assert peer.integrity == 1
        assert peer.errors == 0
        assert peer.health.state == HEALTHY  # transport demonstrably works

    def test_dead_peer_trips_breaker_then_local_only(self, tmp_path):
        tier = self._tier(
            tmp_path, f"127.0.0.1:{free_port()}", connect_timeout=0.5)
        for fp in (FP, FP2, FP3):
            assert tier.get("result", fp) is None
        peer = tier.peers[0]
        assert peer.errors >= FAST_HEALTH.dead_after
        assert peer.health.state == DEAD
        # Local writes and reads keep working, bit-identically to a
        # peerless store.
        tier.put("result", FP, b"still fine")
        assert tier.get("result", FP) == b"still fine"
        # The put never reached the peer: close counts it and names
        # the repair.
        with pytest.warns(RuntimeWarning, match="cache sync"):
            tier.close(timeout=1.0)
        assert tier.remote_stats()["replication"] == {"backlog": 0,
                                                      "dropped": 1}

    def test_version_skew_marks_peer_unusable_once(self, peer, tmp_path):
        peer.store.put("result", FP, b"unreachable generation")
        tier = self._tier(tmp_path, peer.address, version="bogus-test")
        with pytest.warns(RuntimeWarning, match="version"):
            assert tier.get("result", FP) is None
        assert tier.peers[0].unusable
        # Never asked again: no further traffic, still a local miss.
        assert tier.get("result", FP2) is None
        assert tier.peers[0].hits == 0


# ----------------------------------------------------------------------
# anti-entropy sync
# ----------------------------------------------------------------------
class TestSync:
    def test_push_fills_the_peer(self, peer, local):
        local.put("result", FP, b"a", {"m": 1})
        local.put("trace", FP2, b"b")
        rows = sync_with_peers(local, peer.address, direction="push")
        (row,) = rows
        assert row["pushed"] == 2 and row["errors"] == 0
        assert row["skipped"] is None
        assert peer.store.get("result", FP) == b"a"
        assert peer.store.get_entry("result", FP)["meta"] == {"m": 1}
        assert peer.store.get("trace", FP2) == b"b"
        # Idempotent: a second pass finds nothing to move.
        (row,) = sync_with_peers(local, peer.address, direction="push")
        assert row["pushed"] == 0

    def test_pull_fills_the_local_store(self, peer, local):
        peer.store.put("result", FP, b"remote", {"m": 3})
        (row,) = sync_with_peers(local, peer.address, direction="pull")
        assert row["pulled"] == 1 and row["errors"] == 0
        assert local.get("result", FP) == b"remote"
        assert local.get_entry("result", FP)["meta"] == {"m": 3}

    def test_both_converges_disjoint_stores(self, peer, local):
        local.put("result", FP, b"mine")
        peer.store.put("result", FP2, b"theirs")
        (row,) = sync_with_peers(local, peer.address, direction="both")
        assert row["pulled"] == 1 and row["pushed"] == 1
        assert local.get("result", FP2) == b"theirs"
        assert peer.store.get("result", FP) == b"mine"

    def test_existing_entries_never_overwritten(self, peer, local):
        local.put("result", FP, b"local truth")
        peer.store.put("result", FP, b"remote truth")
        (row,) = sync_with_peers(local, peer.address, direction="both")
        assert row["pulled"] == 0 and row["pushed"] == 0
        assert local.get("result", FP) == b"local truth"
        assert peer.store.get("result", FP) == b"remote truth"

    def test_torn_local_object_is_never_pushed(self, peer, local):
        local.put("result", FP, b"z" * 1000)
        _tear_entry(local, "result", FP)
        (row,) = sync_with_peers(local, peer.address, direction="push")
        assert row["pushed"] == 0
        assert peer.store.get("result", FP) is None

    def test_bad_listed_fp_is_an_error_not_a_crash(self, peer, local,
                                                   monkeypatch):
        """A peer that lists (and serves) a fingerprint the local store
        refuses costs one counted error; the rest of the pull lands."""
        peer.store.put("result", FP, b"good")
        bad, evil = "../../x", b"evil"
        listing, fetch = ServeClient.store_has, ServeClient.store_get

        def has(self, kind, fps):
            oids = listing(self, kind, fps)
            if fps is None:
                oids[bad] = hashlib.sha256(evil).hexdigest()
            return oids

        def get(self, kind, fp):
            if fp == bad:
                return hashlib.sha256(evil).hexdigest(), evil, {}
            return fetch(self, kind, fp)

        monkeypatch.setattr(ServeClient, "store_has", has)
        monkeypatch.setattr(ServeClient, "store_get", get)
        (row,) = sync_with_peers(local, peer.address, direction="pull")
        assert row["pulled"] == 1 and row["errors"] == 1
        assert [(kind, fp) for kind, fp, _e in local.iter_index()] == [
            ("result", FP)]
        assert not os.path.exists(os.path.join(local.root, "..", "x"))

    def test_unreachable_peer_is_skipped_whole(self, local):
        local.put("result", FP, b"a")
        (row,) = sync_with_peers(
            local, f"127.0.0.1:{free_port()}", direction="both")
        assert row["skipped"] is not None
        assert row["pulled"] == 0 and row["pushed"] == 0

    def test_bad_direction_raises(self, local):
        with pytest.raises(ValueError, match="direction"):
            sync_with_peers(local, "127.0.0.1:1", direction="sideways")


# ----------------------------------------------------------------------
# run_matrix(peers=...)
# ----------------------------------------------------------------------
def test_reused_cache_replicates_every_run(peer, tmp_path):
    """A caller's cache passed to several federated runs is federated
    afresh by each: every run's results reach the peer, and the cache
    keeps its own store between runs."""
    cache = ArtifactCache(str(tmp_path / "local"))
    own = cache.store
    for benchmark in ("gzip", "twolf"):
        run_matrix((benchmark,), widths=(8,), archs=("ev8",),
                   layouts=(True,), instructions=2000, scale=0.3,
                   store=cache, peers=peer.address)
        assert cache.store is own
    assert cache.misses["result"] == 2
    assert len(list(own.iter_index())) == 2
    assert len(list(peer.store.iter_index())) == 2
