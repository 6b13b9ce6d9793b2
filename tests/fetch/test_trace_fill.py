"""The trace engine's fill unit and fetch plans against their rules.

The fill unit keys traces by the blocks it commits and derives a
descriptor's fields only on an intern miss; the accel kernel replays a
trace-cache hit from a fetch plan.  Both are checked here against
restatements of the rules they replace: a test-local copy of the
segment/outcome/call-return fill rules, and the interpreted delivery
(``_deliver_from_trace_cache``), the plan's oracle.
"""

import random

import pytest

from repro.accel.engine_gen import make_kernels
from repro.common.types import BranchKind
from repro.experiments.configs import build_processor
from repro.fetch.ftq import FetchRequest
from repro.fetch.trace_cache import (
    PLAN_LAST, PLAN_NONE, PLAN_PRE, fetch_plan,
)
from repro.fetch.trace_predictor import MAX_TRACE_BRANCHES, MAX_TRACE_LENGTH
from repro.isa.trace import TraceRecord
from repro.isa.workloads import prepare_program, ref_trace_seed

N_BLOCKS = 3 * TraceRecord.CHUNK


@pytest.fixture(scope="module", params=[
    ("gzip", True), ("gzip", False), ("twolf", True), ("twolf", False),
], ids=lambda p: f"{p[0]}-{'opt' if p[1] else 'base'}")
def image(request):
    name, optimized = request.param
    return name, optimized, prepare_program(name, optimized, scale=0.35)


def reference_fill(blocks, flags):
    """Commit-order fill with the segment, outcome and call-return
    rules restated: one ``(identity, mispredicted)`` per trace, plus how
    often each way of ending a trace (or splitting a block) occurred."""
    traces = []
    seen = dict.fromkeys(("cap", "branches", "ret", "ind", "split"), 0)
    state = {"start": 0, "segs": [], "outcomes": [], "calls": [],
             "length": 0, "misp": False}

    def finalize(kind, next_addr):
        segs = tuple((a, n) for a, n in state["segs"])
        traces.append(((state["start"], tuple(state["outcomes"]), segs,
                        state["length"], kind, next_addr,
                        tuple(state["calls"])), state["misp"]))
        state.update(segs=[], outcomes=[], calls=[], length=0, misp=False)

    for dyn, misp in zip(blocks, flags):
        state["misp"] = state["misp"] or misp
        addr, remaining = dyn.addr, dyn.size
        chunks = 0
        while remaining:
            space = MAX_TRACE_LENGTH - state["length"]
            if space == 0:
                seen["cap"] += 1
                finalize(BranchKind.NONE, addr)
                continue
            take = min(space, remaining)
            if state["length"] == 0:
                state["start"] = addr
            segs = state["segs"]
            if segs and segs[-1][0] + segs[-1][1] * 4 == addr:
                segs[-1][1] += take
            else:
                segs.append([addr, take])
            state["length"] += take
            addr += take * 4
            remaining -= take
            chunks += 1
        seen["split"] += chunks > 1
        kind = dyn.kind
        if kind is BranchKind.NONE:
            continue
        if kind is BranchKind.COND:
            state["outcomes"].append(dyn.taken)
        elif kind is BranchKind.CALL:
            state["calls"].append(dyn.lb.fallthrough_addr)
        if len(state["outcomes"]) >= MAX_TRACE_BRANCHES:
            seen["branches"] += 1
        seen["ret"] += kind is BranchKind.RET
        seen["ind"] += kind is BranchKind.IND
        if (state["length"] >= MAX_TRACE_LENGTH
                or len(state["outcomes"]) >= MAX_TRACE_BRANCHES
                or kind in (BranchKind.RET, BranchKind.IND) or misp):
            finalize(kind, dyn.next_addr)
    return traces, seen


def _trace_engine(name, optimized, program, mode, width=8):
    return build_processor(
        "trace", program, width, benchmark=name, optimized=optimized,
        trace_seed=ref_trace_seed(name), engine_mode=mode,
    ).engine


def _recording(engine):
    """Route the engine's predictor updates through a recorder: one
    ``(identity, mispredicted)`` per trace the fill unit finalizes."""
    traces = []
    update = engine.predictor.update

    def record(history, descriptor, mispredicted):
        traces.append((descriptor._identity(), mispredicted))
        update(history, descriptor, mispredicted)

    engine.predictor.update = record
    return traces


@pytest.mark.parametrize("seed", [1, 2])
def test_fill_unit_matches_reference_rules(image, seed):
    name, optimized, program = image
    record = TraceRecord(program, ref_trace_seed(name))
    while len(record.blocks) < N_BLOCKS:
        record.extend()
    blocks = record.blocks[:N_BLOCKS]
    rng = random.Random(seed)
    flags = [rng.random() < 0.03 for _ in blocks]
    expected, seen = reference_fill(blocks, flags)
    # Every way a trace can end, and a block split by the length cap,
    # occurs, so the comparison covers each rule.
    assert all(seen.values()), seen

    interp = _trace_engine(name, optimized, program, "interp")
    got_interp = _recording(interp)
    for dyn, misp in zip(blocks, flags):
        interp.note_commit(dyn, None, misp)

    accel = _trace_engine(name, optimized, program, "accel")
    got_accel = _recording(accel)
    _, note_commit = make_kernels(accel)
    for dyn, misp in zip(blocks, flags):
        note_commit(dyn, None, misp)

    assert got_interp == expected
    assert got_accel == expected


PRE, CKPT, PAYLOAD, PRED_NEXT = (object() for _ in range(4))


def _replayed(frags):
    """A plan step's fragments with the sentinel request's fields."""
    out = []
    for code, start, count, pred_next in frags:
        if code == PLAN_NONE:
            out.append((start, count, pred_next, None, None))
        elif code == PLAN_PRE:
            out.append((start, count, pred_next, PRE, None))
        else:
            assert code == PLAN_LAST and pred_next is None
            out.append((start, count, PRED_NEXT, CKPT, PAYLOAD))
    return out


def _oracle_cycles(engine, descriptor):
    """What ``_deliver_from_trace_cache`` emits, cycle by cycle, for a
    trace-cache hit on a request carrying sentinel fields."""
    request = FetchRequest(descriptor.start, descriptor.length, None,
                           PRED_NEXT, PAYLOAD, CKPT, PRE,
                           descriptor=descriptor)
    engine.ftq.flush()
    engine.ftq.push(request)
    engine._cur_req = request
    engine._tc_hit = True
    engine._seg_idx = engine._seg_off = engine._prefix_left = 0
    cycles = []
    while engine._cur_req is request:
        bundle, emitted = engine._deliver_from_trace_cache(request,
                                                           descriptor)
        cycles.append((bundle, emitted, engine._seg_idx, engine._seg_off))
    return cycles


@pytest.mark.parametrize("width", [2, 4, 8])
def test_plans_match_interpreted_delivery(image, width):
    name, optimized, program = image
    processor = build_processor(
        "trace", program, width, benchmark=name, optimized=optimized,
        trace_seed=ref_trace_seed(name), engine_mode="accel",
    )
    processor.run(6000)
    # Far below the intern bound, so the table holds every descriptor
    # the run interned.
    interned = list(processor.engine._fill._intern.values())
    assert 0 < len(interned) < 4096
    assert any(d.plan is not None for d in interned)  # plans replayed

    oracle = _trace_engine(name, optimized, program, "interp", width)
    for descriptor in interned:
        plan = fetch_plan(program, descriptor, width)
        if descriptor.plan is not None:
            assert descriptor.plan == plan
        steps = []
        while plan is not None:
            frags, emitted, seg_idx, seg_off, plan = plan
            steps.append((_replayed(frags), emitted, seg_idx, seg_off))
        assert steps == _oracle_cycles(oracle, descriptor), descriptor
