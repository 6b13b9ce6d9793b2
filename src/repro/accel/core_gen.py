"""Specialized ``Processor.run`` kernels: cycle loop + inlined scheduler.

The generated kernel is a transliteration of the interpreted hot path
with these structural changes, none of which can alter results:

* the back-end's **segment scheduler is inlined** into the cycle loop —
  the per-segment :meth:`DataflowBackend.dispatch_segment` call and its
  state read/write-back disappear, and all scheduling state (issue
  occupancy, completion ring cursor, commit chain) lives in the one
  frame's locals for the whole run;
* every **config constant is folded** into the source as a literal —
  pipe width, dispatch depth, ROB size, the three D-side latency
  levels, the L2 geometry — so the branches they gate compile to
  immediate comparisons;
* **result counters and the trace cursor are locals**, published back
  to their objects once at the end of the run, and each count lives
  where the run already holds it: the scheduler's instruction count
  gives the instructions scheduled and fetched (a correct-path
  instruction is scheduled the cycle it is fetched) and whether a
  bundle dispatched; the branch, conditional and taken counts are one
  sum of the blocks' packed :attr:`~repro.isa.trace.DynBlock.counts`,
  unpacked at publish; and the walker's ``__next__`` becomes a list
  index, its counters published from the record position and the
  instruction count;
* **one retire queue**, as in the oracle: one entry per block holds
  its ROB share and its commit replay, so the loop head drains one
  deque and both bulk jumps read one head;
* the **L2 probe is inlined** (the L1D outcome is read off the trace's
  data stream, as in the oracle) and tests ``tag in ways`` before it
  reorders a set, since most probes miss (an L1D miss is usually an
  L2 miss too); L2 counters stay attribute updates
  because the instruction side shares that cache mid-run, and the L1D
  counters are derived from the access count at publish time;
* the **per-slot loop is lean**: it iterates the segment's schedule
  tuples (or a slice of them) directly; the issue search starts at
  ``ready_base = max(dispatch_cycle + 1, floor)``, computed once per
  segment and clamped again when a compaction raises the floor, so
  only dependences can raise it; and commit slots come from one
  three-way branch.  The loop body is one template block spliced
  twice: a segment that starts with ``len(iu) + take <= IU_LIMIT``
  runs the copy without the compaction check, since a slot adds at
  most one cycle to the table and the check cannot fire; any other
  segment runs the copy that checks after every slot.

One further bit-exact micro-optimization rides along: the warmup
snapshot copies the local counter tuple instead of the result
dataclass.  The kernel reads and publishes the same backend state
:meth:`~repro.core.backend.DataflowBackend.dispatch_segment` does, so
mixing modes on one backend stays coherent.

The interpreted ``Processor.run`` and ``dispatch_segment`` are the
oracle.  Parity is pinned by ``tests/accel/`` (all four engines x
widths 2/4/8, both layouts, randomized machines and workloads, cold and
warm artifact stores, and the published backend state).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.common.types import BranchKind
from repro.core.backend import _IU_LIMIT
from repro.core.results import SimulationResult
from repro.isa.program import MEM_LOAD
from repro.isa.trace import branch_counts

from repro.accel.codegen import CompiledKernel, compile_kernel, splice

__all__ = ["run_kernel", "run_kernel_source"]

#: Sentinel "no queued entry" cycle, mirroring processor.py.
_NEVER = 1 << 62

# Inlined L2 probe (Cache.access of the L2) for an L1D miss at ``a``:
# sets ``dlat`` to the load-to-use latency of the level that held the
# line, with exactly the interpreter's access/LRU/fill/counter
# semantics.
_PROBE_BLOCK = """\
line = a >> $L2_OFF
ways = l2_sets[line & $L2_MASK]
tag = line >> $L2_SHIFT
l2_cache.accesses += 1
if ways and ways[0] == tag:
    dlat = $LVL1
elif tag in ways:
    ways.remove(tag)
    ways.insert(0, tag)
    dlat = $LVL1
else:
    l2_cache.misses += 1
    ways.insert(0, tag)
    if len(ways) > $L2_ASSOC:
        ways.pop()
        l2_cache.evictions += 1
    dlat = $LVL2
"""

# One slot of the inlined segment scheduler: the body of the per-slot
# loop over ``seg_sched``.  It is spliced twice, with and without the
# compaction check at $IU_CHECK (see the module docstring).
_SLOT_BLOCK = """\
issue = ready_base
if d1:
    dep = completions[(cnt - d1) & 127]
    if dep > issue:
        issue = dep
if d2:
    dep = completions[(cnt - d2) & 127]
    if dep > issue:
        issue = dep
used = iu.get(issue, 0)
while used >= $WIDTH:
    issue += 1
    used = iu.get(issue, 0)
iu[issue] = used + 1
$IU_CHECK

if mem:
    try:
        code = codes[loads + stores]
    except IndexError:
        data_extend()
        code = codes[loads + stores]
    if code < 0:
        dlat = $LVL0
    else:
        dl1_miss += 1
        dl1_evict += code & 1
        a = code >> 1
        $PROBE_SLOT
    if mem == $MEM_LOAD:
        latency += dlat
        loads += 1
    else:
        stores += 1

complete = issue + latency
completions[cnt & 127] = complete
cnt += 1

if complete >= last:
    last = complete + 1
    cic = 1
elif cic >= $WIDTH:
    last += 1
    cic = 1
else:
    cic += 1
"""

# Issue-table compaction once the table holds more than $IU_LIMIT
# cycles; a compaction can raise the floor, and the rest of the
# segment then searches from it.
_IU_CHECK = """\
if len(iu) > $IU_LIMIT:
    iu_compact(issue)
    iu = backend._iu
    floor = backend._issue_floor
    if floor > ready_base:
        ready_base = floor
"""


_TEMPLATE = '''\
def make_run(processor, engine_cycle=None, engine_note_commit=None):
    """Bind one processor into the specialized run kernel."""
    engine = processor.engine
    backend = processor.backend
    cursor = processor.cursor
    mem = processor.mem
    if backend._lvl_lat != ($LVL0, $LVL1, $LVL2):
        raise RuntimeError("kernel compiled for different memory latencies")
    if backend.width != $WIDTH:
        raise RuntimeError("kernel compiled for different width")
    walker = cursor._walker
    record = walker.record
    rec_blocks = record.blocks
    rec_extend = record.extend
    if engine_cycle is None:
        engine_cycle = engine.cycle
    note_commit = engine_note_commit or engine.note_commit
    engine_redirect = engine.redirect
    stats_dict = engine.stats_dict
    mem_stats = mem.stats_summary
    completions = backend._completions
    codes = backend._data.codes
    data_extend = backend._data.extend
    dl1_cache = mem.dl1
    l2_cache = mem.l2
    l2_sets = l2_cache._sets
    iu_compact = backend._iu_compact
    KIND_COND = BranchKind.COND
    KIND_RET = BranchKind.RET

    def run(max_instructions, warmup=0):
        result = SimulationResult(
            benchmark=processor.benchmark,
            engine=engine.name,
            width=$WIDTH,
            optimized=processor.optimized,
            cycles=0,
            instructions=0,
        )

        now = 0
        warm_state = None
        diverged = False
        pending = None
        # The one retire queue: (commit_cycle, instructions, dyn,
        # payload, mispredicted) per block, dyn None for a partial
        # block at a bundle boundary (see processor.py).
        retire = deque()
        retire_pop = retire.popleft
        retire_push = retire.append
        retire_head = $NEVER
        inflight_count = 0

        # Result counters as frame locals, published once at the end.
        # ``r_counts`` sums the blocks' packed branch counts.
        r_counts = 0
        r_misp = 0
        r_cond_misp = 0
        r_ret_misp = 0
        r_indirect = 0
        r_wrong = 0
        r_rob_stall = 0
        r_idle = 0
        r_fetch_cycles = 0

        # Trace replay state: the record's block list is append-only,
        # so the kernel indexes it directly and extends on exhaustion.
        pos = pos0 = walker._pos
        blocks_len = len(rec_blocks)
        cur_dyn = cursor.dyn
        cur_off = cursor.offset
        unscheduled0 = cur_dyn.size - cur_off if cur_dyn is not None else 0

        # Scheduler state as frame locals for the whole run.  The
        # instruction count ``cnt`` is the run's one progress counter:
        # every correct-path instruction fetched is scheduled at once.
        iu = backend._iu
        floor = backend._issue_floor
        cnt = cnt0 = backend._count
        last = backend._last_commit
        cic = backend._commits_in_cycle
        loads = backend.load_accesses
        stores = backend.store_accesses
        # Every memory access is one L1D access: the count is published
        # from ``loads + stores``.
        dl1_base = dl1_cache.accesses - loads - stores
        dl1_miss = dl1_cache.misses
        dl1_evict = dl1_cache.evictions
        segs = backend.seg_count
        seg_base = segs

        cnt_stop = cnt0 + max_instructions
        cnt_warm = cnt0 + warmup if warmup else $NEVER
        cycle_limit = 400 * max_instructions + 1_000_000

        # The publish block runs even when the wedge guard raises, so
        # post-mortem inspection (cache counters, backend state, walker
        # position) reflects the failed run exactly like the interpreted
        # path's in-place updates do.
        try:
            while cnt < cnt_stop and cur_dyn is not None:
                now += 1
                if now > cycle_limit:
                    raise RuntimeError(
                        f"simulation wedged: {cnt - cnt0} instructions in "
                        f"{now} cycles (engine={engine.name}, "
                        f"pending={pending}, "
                        f"diverged={diverged}, idle={r_idle})"
                    )

                while retire_head <= now:
                    _, n, dyn, payload, misp = retire_pop()
                    inflight_count -= n
                    if dyn is not None:
                        note_commit(dyn, payload, misp)
                    retire_head = retire[0][0] if retire else $NEVER

                if pending is not None and now >= pending[0]:
                    engine_redirect(now, pending[1], pending[2], pending[4])
                    pending = None
                    diverged = False
                    continue

                if not diverged and inflight_count >= $ROB_SIZE:
                    # Window full: jump to the next queued event in bulk
                    # (bit-exact; see processor.py for the argument).
                    nxt = retire_head
                    if pending is not None and pending[0] < nxt:
                        nxt = pending[0]
                    r_rob_stall += nxt - now
                    now = nxt - 1
                    continue

                bundle = engine_cycle(now)
                if not bundle:
                    # Bulk-jump only resolution-wait stretches: every
                    # engine is a contractual no-op while
                    # _waiting_resolve is set, but an I-cache busy
                    # window still runs the decoupled prediction stage
                    # (see processor.py).
                    if engine._waiting_resolve and pending is not None:
                        nxt = retire_head
                        if pending[0] < nxt:
                            nxt = pending[0]
                        if nxt > now + 1:
                            r_idle += nxt - now
                            now = nxt - 1
                        else:
                            r_idle += 1
                    else:
                        r_idle += 1
                    continue

                if diverged:
                    for frag in bundle:
                        r_wrong += frag[1]
                    continue

                dispatch_cycle = now + $DISPATCH_DEPTH
                block_instrs = 0
                block_commit = 0
                bundle_cnt = cnt
                frag_iter = iter(bundle)
                for frag in frag_iter:
                    start, count, pred_next, ckpt, payload = frag
                    assert start == cur_dyn.addr + cur_off * 4, (
                        f"engine fetched {start:#x}, trace expects "
                        f"{cur_dyn.addr + cur_off * 4:#x} at cycle {now}"
                    )
                    remaining = count
                    while remaining:
                        dyn = cur_dyn
                        size = dyn.size
                        take = size - cur_off
                        if take > remaining:
                            take = remaining

                        # ==== inlined segment scheduler ======================
                        # backend.dispatch_segment(dyn.sched, cur_off,
                        # take, dispatch_cycle); see the module docstring.
                        segs += 1
                        seg_sched = dyn.sched
                        if take != size:
                            seg_sched = seg_sched[cur_off:cur_off + take]
                        ready_base = dispatch_cycle + 1
                        if floor > ready_base:
                            ready_base = floor
                        if len(iu) + take <= $IU_LIMIT:
                            # Each slot adds at most one cycle to the
                            # table, so this segment cannot compact.
                            for mem, latency, d1, d2 in seg_sched:
                                $SLOT_LEAN
                        else:
                            for mem, latency, d1, d2 in seg_sched:
                                $SLOT_CHECKED
                        seg_commit = last
                        # ==== end inlined segment scheduler ==================

                        remaining -= take

                        if cur_off + take == size:
                            if remaining:
                                pred = dyn.addr + size * 4
                                ck = None
                                pl = None
                            else:
                                pred = pred_next
                                ck = ckpt
                                pl = payload
                            actual_next = dyn.next_addr
                            r_counts += dyn.counts
                            mispredicted = False
                            if pred is None:
                                r_indirect += 1
                                pending = (complete + 1, actual_next, ck,
                                           False, dyn)
                                diverged = True
                            elif pred != actual_next:
                                mispredicted = True
                                r_misp += 1
                                kind = dyn.kind
                                if kind is KIND_COND:
                                    r_cond_misp += 1
                                elif kind is KIND_RET:
                                    r_ret_misp += 1
                                pending = (complete + 1, actual_next, ck,
                                           True, dyn)
                                diverged = True
                            block_instrs += take
                            retire_push((seg_commit, block_instrs, dyn, pl,
                                         mispredicted))
                            if seg_commit < retire_head:
                                retire_head = seg_commit
                            inflight_count += block_instrs
                            block_instrs = 0
                            # Inlined walker __next__ (record replay).
                            if pos >= blocks_len:
                                rec_extend()
                                blocks_len = len(rec_blocks)
                            if pos < blocks_len:
                                cur_dyn = rec_blocks[pos]
                                pos += 1
                                cur_off = 0
                            else:
                                cur_dyn = None
                                cur_off = 0
                                break
                            if diverged:
                                break
                        else:
                            cur_off += take
                            block_instrs += take
                            block_commit = seg_commit
                            if pred_next is not None:
                                last_next = start + count * 4
                                if pred_next != last_next:
                                    pending = (complete + 1, last_next, ckpt,
                                               True, dyn)
                                    r_misp += 1
                                    diverged = True
                            break  # remaining is 0 here by construction

                    if cur_dyn is None:
                        break
                    if diverged:
                        # Everything past the divergence is wrong-path; the
                        # fragment iterator continues where the walk broke.
                        wrong = remaining
                        for frag2 in frag_iter:
                            wrong += frag2[1]
                        r_wrong += wrong
                        break

                if block_instrs:
                    retire_push((block_commit, block_instrs, None, None,
                                 False))
                    if block_commit < retire_head:
                        retire_head = block_commit
                    inflight_count += block_instrs

                if cnt != bundle_cnt:
                    r_fetch_cycles += 1

                if cnt >= cnt_warm and warm_state is None:
                    warm_state = (
                        now, cnt,
                        (r_counts, r_misp, r_cond_misp, r_ret_misp,
                         r_indirect, r_wrong, r_rob_stall, r_idle,
                         r_fetch_cycles),
                    )

                if cnt >= cnt_stop:
                    break
        finally:
            # -- publish the loop-local state back to the objects ------------
            cursor.dyn = cur_dyn
            cursor.offset = cur_off
            cursor.exhausted = cur_dyn is None
            # Every block walked was scheduled whole, but for the
            # unscheduled tail of the block at the cursor.
            walker._pos = pos
            walker.blocks_walked += pos - pos0
            walker.instructions_walked += cnt - cnt0 - unscheduled0 + (
                cur_dyn.size - cur_off if cur_dyn is not None else 0)

            backend._issue_floor = floor
            backend._count = cnt
            backend._last_commit = last
            backend._commits_in_cycle = cic
            backend.load_accesses = loads
            backend.store_accesses = stores
            backend.seg_count = segs
            dl1_cache.accesses = dl1_base + loads + stores
            dl1_cache.misses = dl1_miss
            dl1_cache.evictions = dl1_evict

        counts = (r_counts, r_misp, r_cond_misp, r_ret_misp, r_indirect,
                  r_wrong, r_rob_stall, r_idle, r_fetch_cycles)
        start_now, start_cnt = 0, cnt0
        if warm_state is not None:
            start_now, start_cnt, warm_counts = warm_state
            counts = [c - w for c, w in zip(counts, warm_counts)]
        (result.branches, result.cond_branches,
         result.taken_branches) = branch_counts(counts[0])
        (result.mispredictions, result.cond_mispredictions,
         result.return_mispredictions, result.indirect_resolutions,
         result.wrong_path_instructions, result.rob_stall_cycles,
         result.idle_cycles, result.fetch_cycles) = counts[1:]
        # Every correct-path instruction fetched was scheduled.
        result.instructions = result.fetched_instructions = cnt - start_cnt
        result.cycles = (now if now > last else last) - start_now
        result.engine_stats = stats_dict()
        result.memory_stats = mem_stats()
        result.extras = {"segments": segs - seg_base}
        return result

    return run
'''

_SLOT_BLOCK = splice(_SLOT_BLOCK, "PROBE_SLOT", _PROBE_BLOCK)
_TEMPLATE = splice(_TEMPLATE, "SLOT_LEAN",
                   splice(_SLOT_BLOCK, "IU_CHECK", ""))
_TEMPLATE = splice(_TEMPLATE, "SLOT_CHECKED",
                   splice(_SLOT_BLOCK, "IU_CHECK", _IU_CHECK))


def _consts(processor) -> dict:
    core = processor.machine.core
    lvl0, lvl1, lvl2 = processor.backend._lvl_lat
    l2 = processor.mem.l2
    return {
        "L2_OFF": l2._offset_bits,
        "L2_MASK": l2._index_mask,
        "L2_SHIFT": l2._tag_shift,
        "L2_ASSOC": l2._assoc,
        "WIDTH": core.width,
        "DISPATCH_DEPTH": core.dispatch_depth,
        "ROB_SIZE": core.rob_size,
        "LVL0": lvl0,
        "LVL1": lvl1,
        "LVL2": lvl2,
        "NEVER": _NEVER,
        "IU_LIMIT": _IU_LIMIT,
        "MEM_LOAD": MEM_LOAD,
    }


_NAMESPACE = {
    "deque": deque,
    "BranchKind": BranchKind,
    "SimulationResult": SimulationResult,
    "branch_counts": branch_counts,
}


def run_kernel(processor) -> CompiledKernel:
    """The compiled run-kernel for ``processor``'s configuration."""
    consts = _consts(processor)
    config_key = tuple(sorted(consts.items()))
    return compile_kernel(
        "run", config_key, _TEMPLATE, consts, _NAMESPACE, "make_run",
    )


def make_run(
    processor,
    engine_cycle: Optional[Callable] = None,
    engine_note_commit: Optional[Callable] = None,
) -> Callable:
    """Bind ``processor`` (and optionally specialized engine-cycle /
    commit closures) into its configuration's compiled kernel."""
    return run_kernel(processor).factory(
        processor, engine_cycle, engine_note_commit
    )


def run_kernel_source(processor) -> str:
    """The generated source text (debugging / ``python -m repro.accel``)."""
    return run_kernel(processor).source
