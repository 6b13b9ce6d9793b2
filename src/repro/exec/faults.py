"""Deterministic fault injection for the sweep-execution subsystem.

The test suite's fault drills (``pytest -m faults``) need to prove
that a sweep survives worker SIGKILLs, hangs, transient exceptions and
store I/O errors *with bit-identical results* — which requires faults
that strike at chosen cells, a chosen number of times, reproducibly.
This module provides exactly that and nothing else: a fault *plan* is
a list of :class:`FaultSpec` entries carried in the :data:`FAULTS_ENV`
environment variable (JSON), so forked and spawned pool workers inherit
it automatically, and every hook is attempt- or count-gated so a replay
of the same sweep injects the same faults at the same points.

Hook points:

* :func:`before_task` — called by the job pools immediately before a
  job attempt runs (in the worker process for the forked pool, in the
  caller for the serial pool).  Kinds ``kill`` (SIGKILL the process),
  ``hang`` (sleep ``seconds``) and ``exc`` (raise
  :class:`TransientFault`) fire here when the job-key string contains
  ``match`` and ``after <= attempt < after + times`` — retries carry
  the attempt number, so "fail the first attempt, succeed on retry" is
  expressible directly.
* the artifact store's write path — kinds ``store_err`` (raise
  ``OSError``) and ``store_kill`` (SIGKILL between the temp-file write
  and its atomic ``os.replace``) fire against targets of the form
  ``"<kind>/<fingerprint>"``, one per entry write.  These are gated by a
  per-process call counter (``after``/``times``), or — for exactly-once
  semantics *across* processes (a retried cell must not be killed again
  by the replacement worker) — by a ``token`` file created with
  ``O_EXCL``: only the creator injects.
* the serve protocol's framing path
  (``repro.serve.protocol._net_fault_hook``) — kinds ``net_refuse``
  (raise ``ConnectionRefusedError``), ``net_drop`` (write half the
  frame, then raise ``ConnectionResetError`` — the peer sees a
  mid-frame reset), ``net_delay`` (sleep ``seconds``, then deliver
  normally) and ``net_garbage`` (replace the frame with undecodable
  bytes).  ``match`` tests the routing target (``"host:port"`` on the
  client side) *and* the frame text, so a plan can partition one node
  of a fleet or strike one request op — including the federated-store
  ops (``match="store_get"`` garbles or drops exactly the remote
  read-through path of :mod:`repro.store.remote`, whose client frames
  carry the op name).  Gating mirrors the store kinds: per-process
  match counter or cross-process ``O_EXCL`` token.

When no plan is active every hook is a single ``is-None`` check; the
fault-free hot path does not pay for this module's existence.

Hazard note: a ``kill``/``hang`` spec matches wherever the hook runs —
including the *parent* process when the serial pool executes a matched
cell (that is how the SIGKILL-mid-sweep tests interrupt a run: they run
the sweep in a disposable child process).  Plans are a test harness,
not a production knob.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Environment variable carrying the active fault plan (JSON list).
FAULTS_ENV = "REPRO_FAULTS"

_TASK_KINDS = frozenset({"kill", "hang", "exc"})
_STORE_KINDS = frozenset({"store_err", "store_kill"})
_NET_KINDS = frozenset({"net_refuse", "net_drop", "net_delay",
                        "net_garbage"})


class TransientFault(RuntimeError):
    """The injected transient exception (``kind="exc"``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``match`` is a plain substring test against the job-key string
    (task kinds) or the store-write target (store kinds); empty matches
    everything.  ``after``/``times`` bound *when* it fires: task kinds
    compare against the attempt number, store kinds against a
    per-process counter of matching calls.  ``token``, when set, makes
    a store fault fire at most once across *all* processes sharing the
    path (the injector creates it with ``O_EXCL``).
    """

    kind: str
    match: str = ""
    times: int = 1
    after: int = 0
    seconds: float = 600.0
    token: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _TASK_KINDS | _STORE_KINDS | _NET_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


#: The active plan; () means fault injection is off.
_PLAN: Tuple[FaultSpec, ...] = ()
#: Per-process match counters for store-fault gating.
_STORE_COUNTS: Dict[Tuple[str, str], int] = {}
#: Per-process match counters for net-fault gating.
_NET_COUNTS: Dict[Tuple[str, str], int] = {}
_parse_warned = False


def encode_plan(*specs: FaultSpec) -> str:
    """The :data:`FAULTS_ENV` value describing ``specs``."""
    rows = []
    for spec in specs:
        row = {"kind": spec.kind}
        if spec.match:
            row["match"] = spec.match
        if spec.times != 1:
            row["times"] = spec.times
        if spec.after:
            row["after"] = spec.after
        if spec.seconds != 600.0:
            row["seconds"] = spec.seconds
        if spec.token:
            row["token"] = spec.token
        rows.append(row)
    return json.dumps(rows)


def _parse_plan(raw: str) -> Tuple[FaultSpec, ...]:
    global _parse_warned
    try:
        rows = json.loads(raw)
        if not isinstance(rows, list):
            raise ValueError("plan must be a JSON list")
        return tuple(
            FaultSpec(
                kind=str(row["kind"]),
                match=str(row.get("match", "")),
                times=int(row.get("times", 1)),
                after=int(row.get("after", 0)),
                seconds=float(row.get("seconds", 600.0)),
                token=str(row.get("token", "")),
            )
            for row in rows
        )
    except (KeyError, TypeError, ValueError) as exc:
        if not _parse_warned:
            _parse_warned = True
            print(f"warning: ignoring unparseable ${FAULTS_ENV}: {exc}",
                  file=sys.stderr)
        return ()


def refresh() -> None:
    """Re-read the plan from the environment and (un)install hooks.

    Called automatically at import; tests and the ``active_plan``
    context manager call it after mutating :data:`FAULTS_ENV`.
    """
    global _PLAN
    raw = os.environ.get(FAULTS_ENV, "")
    _PLAN = _parse_plan(raw) if raw else ()
    _STORE_COUNTS.clear()
    _NET_COUNTS.clear()
    _install_store_hook()
    _install_net_hook()


def enabled() -> bool:
    return bool(_PLAN)


def _install_store_hook() -> None:
    """Point the store's write-path hook at us iff the plan needs it.

    The import is lazy and one-directional (``repro.store`` never
    imports ``repro.exec``): with no store faults planned the store
    module keeps a ``None`` hook and pays one attribute test per write.
    """
    wants = any(spec.kind in _STORE_KINDS for spec in _PLAN)
    if not wants and "repro.store.store" not in sys.modules:
        return
    from repro.store import store as store_module

    store_module._write_fault_hook = _store_write_hook if wants else None


def _install_net_hook() -> None:
    """Point the serve protocol's framing hook at us iff needed.

    Same shape as :func:`_install_store_hook`: lazy, one-directional
    (``repro.serve.protocol`` never imports ``repro.exec``), and with
    no net faults planned an already-imported protocol module is reset
    to a ``None`` hook.
    """
    wants = any(spec.kind in _NET_KINDS for spec in _PLAN)
    if not wants and "repro.serve.protocol" not in sys.modules:
        return
    from repro.serve import protocol as protocol_module

    protocol_module._net_fault_hook = _net_fault_hook if wants else None


class active_plan:
    """Context manager: activate a plan in this process *and* the env.

    Sets :data:`FAULTS_ENV` (so pool workers inherit the plan) and
    refreshes the module state; restores both on exit.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self._specs = specs
        self._saved: Optional[str] = None

    def __enter__(self) -> "active_plan":
        self._saved = os.environ.get(FAULTS_ENV)
        os.environ[FAULTS_ENV] = encode_plan(*self._specs)
        refresh()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._saved is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = self._saved
        refresh()


def _claim_token(path: str) -> bool:
    """Atomically claim a cross-process once-token; True for the winner."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except OSError:
        return False
    os.close(fd)
    return True


def before_task(key: object, attempt: int) -> None:
    """Pool hook: runs in the executing process before a job attempt."""
    if not _PLAN:
        return
    text = str(key)
    for spec in _PLAN:
        if spec.kind not in _TASK_KINDS or spec.match not in text:
            continue
        if not (spec.after <= attempt < spec.after + spec.times):
            continue
        if spec.token and not _claim_token(spec.token):
            continue
        if spec.kind == "exc":
            raise TransientFault(
                f"injected transient fault at {text} (attempt {attempt})"
            )
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            continue
        # kill: emulate an OOM-killer / preempted host.
        os.kill(os.getpid(), signal.SIGKILL)


def _store_write_hook(target: str) -> None:
    """Store hook: runs between an artifact's temp write and replace."""
    if not _PLAN:  # pragma: no cover - uninstalled on refresh
        return
    for spec in _PLAN:
        if spec.kind not in _STORE_KINDS or spec.match not in target:
            continue
        if spec.token:
            if not _claim_token(spec.token):
                continue
        else:
            gate = (spec.kind, spec.match)
            count = _STORE_COUNTS.get(gate, 0)
            _STORE_COUNTS[gate] = count + 1
            if not (spec.after <= count < spec.after + spec.times):
                continue
        if spec.kind == "store_err":
            raise OSError(f"injected store I/O error at {target}")
        os.kill(os.getpid(), signal.SIGKILL)


def _net_fault_hook(direction: str, target: str, stream: object,
                    data: bytes) -> bool:
    """Protocol framing hook: emulate refused/reset/slow/noisy links.

    Runs in whichever process calls ``write_message``/``read_message``
    (client or daemon).  A spec matches when ``spec.match`` appears in
    the routing target *or* in the frame text; write-direction calls
    carry the full frame, read-direction calls only the target, so
    content-matched specs strike the sender while target-matched specs
    (the per-node partition case) strike both directions.
    """
    if not _PLAN:  # pragma: no cover - uninstalled on refresh
        return False
    text = data.decode("utf-8", "replace") if data else ""
    for spec in _PLAN:
        if spec.kind not in _NET_KINDS:
            continue
        if spec.match and spec.match not in target and spec.match not in text:
            continue
        if direction == "read" and spec.kind != "net_delay":
            # Non-delay kinds fire once per round trip, on the write
            # side (a dropped/refused/garbled frame already implies the
            # response never arrives intact).
            continue
        if spec.token:
            if not _claim_token(spec.token):
                continue
        else:
            gate = (spec.kind, spec.match)
            count = _NET_COUNTS.get(gate, 0)
            _NET_COUNTS[gate] = count + 1
            if not (spec.after <= count < spec.after + spec.times):
                continue
        if spec.kind == "net_refuse":
            raise ConnectionRefusedError(
                f"injected connection refusal ({target or 'local'})")
        if spec.kind == "net_delay":
            time.sleep(spec.seconds)
            continue
        write = getattr(stream, "write", None)
        flush = getattr(stream, "flush", None)
        if spec.kind == "net_drop":
            # Half a frame, then a reset: the peer sees a line that
            # never terminates and a connection that dies mid-read.
            try:
                if write is not None:
                    write(data[: max(1, len(data) // 2)])
                if flush is not None:
                    flush()
            except OSError:
                pass
            raise ConnectionResetError(
                f"injected mid-frame reset ({target or 'local'})")
        # net_garbage: the frame arrives, but as undecodable bytes.
        if write is not None:
            write(b"\xfe\xedgarbage\xff\x00 not json\n")
        if flush is not None:
            flush()
        return True
    return False


# Pick the plan up at import time: forked workers inherit module state
# anyway, but spawned workers (and plain subprocesses, like the
# SIGKILL-mid-sweep child runs) only share the environment.
refresh()
