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
* **result counters and the trace cursor are locals**: the per-block
  ``result.<counter> += 1`` attribute round-trips and the per-block
  walker ``__next__`` call become local int bumps and a list index,
  published back to their objects once at the end of the run;
* the **L2 probe is inlined** (the L1D outcome is read off the trace's
  data stream, as in the oracle); L2 counters stay attribute updates
  because the instruction side shares that cache mid-run, and the L1D
  counters are derived from the access count at publish time;
* the **per-slot loop is lean**: it iterates the segment's schedule
  tuples (or a slice of them) directly; the issue search starts at
  ``ready_base = max(dispatch_cycle + 1, floor)``, computed once per
  segment and clamped again when a compaction raises the floor, so
  only dependences can raise it; and commit slots come from one
  three-way branch.

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

from repro.accel.codegen import CompiledKernel, compile_kernel

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
else:
    try:
        ways.remove(tag)
    except ValueError:
        l2_cache.misses += 1
        ways.insert(0, tag)
        if len(ways) > $L2_ASSOC:
            ways.pop()
            l2_cache.evictions += 1
        dlat = $LVL2
    else:
        ways.insert(0, tag)
        dlat = $LVL1
"""


def _indent(block: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(
        pad + line if line else line for line in block.splitlines()
    )


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
    KIND_NONE = BranchKind.NONE
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
        scheduled = 0
        warm_state = None
        diverged = False
        pending = None
        commit_queue = deque()
        inflight = deque()
        inflight_count = 0
        commit_head = $NEVER
        inflight_head = $NEVER
        commit_pop = commit_queue.popleft
        commit_push = commit_queue.append
        inflight_pop = inflight.popleft
        inflight_push = inflight.append

        # Result counters as frame locals, published once at the end.
        r_branches = 0
        r_cond_branches = 0
        r_taken = 0
        r_misp = 0
        r_cond_misp = 0
        r_ret_misp = 0
        r_indirect = 0
        r_wrong = 0
        r_rob_stall = 0
        r_idle = 0
        r_fetch_cycles = 0
        r_fetched = 0

        # Trace replay state: the record's block list is append-only,
        # so the kernel indexes it directly and extends on exhaustion.
        pos = walker._pos
        walked_blocks = walker.blocks_walked
        walked_instr = walker.instructions_walked
        blocks_len = len(rec_blocks)
        cur_dyn = cursor.dyn
        cur_off = cursor.offset

        # Scheduler state as frame locals for the whole run.
        iu = backend._iu
        floor = backend._issue_floor
        cnt = backend._count
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

        warm_target = warmup if warmup else $NEVER
        cycle_limit = 400 * max_instructions + 1_000_000

        # The publish block runs even when the wedge guard raises, so
        # post-mortem inspection (cache counters, backend state, walker
        # position) reflects the failed run exactly like the interpreted
        # path's in-place updates do.
        try:
            while scheduled < max_instructions and cur_dyn is not None:
                now += 1
                if now > cycle_limit:
                    raise RuntimeError(
                        f"simulation wedged: {scheduled} instructions in {now} "
                        f"cycles (engine={engine.name}, pending={pending}, "
                        f"diverged={diverged}, idle={r_idle})"
                    )

                while commit_head <= now:
                    _, dyn, payload, misp = commit_pop()
                    note_commit(dyn, payload, misp)
                    commit_head = commit_queue[0][0] if commit_queue else $NEVER
                while inflight_head <= now:
                    # Flat-int entries: commit * 2**20 + instruction count.
                    inflight_count -= inflight_pop() & 1048575
                    inflight_head = (inflight[0] >> 20) if inflight else $NEVER

                if pending is not None and now >= pending[0]:
                    engine_redirect(now, pending[1], pending[2], pending[4])
                    pending = None
                    diverged = False
                    continue

                if not diverged and inflight_count >= $ROB_SIZE:
                    # Window full: jump to the next queued event in bulk
                    # (bit-exact; see processor.py for the argument).
                    nxt = (commit_head if commit_head < inflight_head
                           else inflight_head)
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
                        nxt = (commit_head if commit_head < inflight_head
                               else inflight_head)
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
                correct_in_bundle = 0
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
                        for mem, latency, d1, d2 in seg_sched:
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
                            if len(iu) > $IU_LIMIT:
                                iu_compact(issue)
                                iu = backend._iu
                                floor = backend._issue_floor
                                if floor > ready_base:
                                    ready_base = floor

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
                        seg_commit = last
                        # ==== end inlined segment scheduler ==================

                        scheduled += take
                        correct_in_bundle += take
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
                            kind = dyn.kind
                            if kind is not KIND_NONE:
                                r_branches += 1
                                if kind is KIND_COND:
                                    r_cond_branches += 1
                                if dyn.taken:
                                    r_taken += 1
                            mispredicted = False
                            if pred is None:
                                r_indirect += 1
                                pending = (complete + 1, actual_next, ck,
                                           False, dyn)
                                diverged = True
                            elif pred != actual_next:
                                mispredicted = True
                                r_misp += 1
                                if kind is KIND_COND:
                                    r_cond_misp += 1
                                elif kind is KIND_RET:
                                    r_ret_misp += 1
                                pending = (complete + 1, actual_next, ck,
                                           True, dyn)
                                diverged = True
                            commit_push((seg_commit, dyn, pl, mispredicted))
                            if seg_commit < commit_head:
                                commit_head = seg_commit
                            inflight_push(
                                seg_commit * 1048576 + block_instrs + take
                            )
                            if seg_commit < inflight_head:
                                inflight_head = seg_commit
                            inflight_count += block_instrs + take
                            block_instrs = 0
                            # Inlined walker __next__ (record replay).
                            if pos >= blocks_len:
                                rec_extend()
                                blocks_len = len(rec_blocks)
                            if pos < blocks_len:
                                cur_dyn = rec_blocks[pos]
                                pos += 1
                                walked_blocks += 1
                                walked_instr += cur_dyn.size
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
                    inflight_push(block_commit * 1048576 + block_instrs)
                    if block_commit < inflight_head:
                        inflight_head = block_commit
                    inflight_count += block_instrs

                if correct_in_bundle:
                    r_fetch_cycles += 1
                    r_fetched += correct_in_bundle

                if scheduled >= warm_target and warm_state is None:
                    warm_state = (
                        now, scheduled,
                        (r_branches, r_cond_branches, r_taken, r_misp,
                         r_cond_misp, r_ret_misp, r_indirect, r_wrong,
                         r_rob_stall, r_idle),
                        r_fetch_cycles, r_fetched,
                    )

                if scheduled >= max_instructions:
                    break
        finally:
            # -- publish the loop-local state back to the objects ------------
            cursor.dyn = cur_dyn
            cursor.offset = cur_off
            cursor.exhausted = cur_dyn is None
            walker._pos = pos
            walker.blocks_walked = walked_blocks
            walker.instructions_walked = walked_instr

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

        result.branches = r_branches
        result.cond_branches = r_cond_branches
        result.taken_branches = r_taken
        result.mispredictions = r_misp
        result.cond_mispredictions = r_cond_misp
        result.return_mispredictions = r_ret_misp
        result.indirect_resolutions = r_indirect
        result.wrong_path_instructions = r_wrong
        result.rob_stall_cycles = r_rob_stall
        result.idle_cycles = r_idle
        result.fetch_cycles = r_fetch_cycles
        result.fetched_instructions = r_fetched
        result.instructions = scheduled
        result.cycles = now if now > last else last
        if warm_state is not None:
            warm_now, warm_sched, warm_counts, warm_fc, warm_fi = warm_state
            result.instructions = scheduled - warm_sched
            result.cycles = (now if now > last else last) - warm_now
            result.fetch_cycles = r_fetch_cycles - warm_fc
            result.fetched_instructions = r_fetched - warm_fi
            (wb, wcb, wt, wm, wcm, wrm, wi, ww, wrs, widle) = warm_counts
            result.branches = r_branches - wb
            result.cond_branches = r_cond_branches - wcb
            result.taken_branches = r_taken - wt
            result.mispredictions = r_misp - wm
            result.cond_mispredictions = r_cond_misp - wcm
            result.return_mispredictions = r_ret_misp - wrm
            result.indirect_resolutions = r_indirect - wi
            result.wrong_path_instructions = r_wrong - ww
            result.rob_stall_cycles = r_rob_stall - wrs
            result.idle_cycles = r_idle - widle
        result.engine_stats = stats_dict()
        result.memory_stats = mem_stats()
        result.extras = {"segments": segs - seg_base}
        return result

    return run
'''

# Splice the L2-probe block into the per-slot loop at the surrounding
# indentation.
_TEMPLATE = _TEMPLATE.replace("$PROBE_SLOT", _indent(_PROBE_BLOCK, 36))


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
