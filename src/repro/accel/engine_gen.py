"""Specialized per-engine ``cycle`` / ``note_commit`` kernels.

One template per fetch architecture, each a transliteration of that
engine's per-cycle hot path — the prediction stage, the instruction
cache stage and the straight-line fragment hand-off — plus its
commit-order feedback path (``note_commit``), specialized the same way
the core kernel is:

* config constants folded as literals (pipe width, L1I line mask, the
  EV8 fetch-slot mask, decode-bubble depth, FTB/stream/trace length
  caps);
* per-cycle attribute walks flattened: sub-objects that are bound once
  in ``__init__`` and never rebound (predictor, history, RAS, BTB/FTB,
  FTQ, stats bag, program, memory) are closure locals, as are their
  bound methods — only genuinely mutable per-cycle scalars
  (``fetch_addr``, ``_busy_until``, ``_waiting_resolve``, trace-engine
  segment cursors) stay attribute accesses on the engine;
* the base-class helpers are inlined at their call sites: the busy
  check, the image-bounds check, instructions-to-line-end, the L1I-hit
  fast path of ``_fetch_line``, and the memoized ``scan_run`` lookup
  (a dict probe on the program's scan cache);
* work that repeats is done once: the trace kernel replays a trace
  cache hit from the descriptor's fetch plan
  (:func:`repro.fetch.trace_cache.fetch_plan`, built on the
  descriptor's first hit) instead of re-splitting the trace each
  cycle, and its inlined fill unit finalizes a trace with one intern
  probe on the committed blocks.

The EV8 and FTB kernels inline their direction predictor's
``predict``: the EV8 kernel the 2bcgskew bank indices and vote, the FTB
kernel the packed perceptron dot product (one table-built field mask,
one AND, one ``%`` and one ``bit_count``, with the input byte count
folded in; see :mod:`repro.branch.perceptron`).  Both inline the MRU
hit of their target buffer's lookup (the BTB's, the FTB's) and call
the method for anything else; training stays a predictor method call
at commit.  The stream and trace kernels call their cascaded predictor's
``predict`` and ``update`` methods, which keep their common path to one
frame (see :class:`repro.fetch.stream_predictor.NextStreamPredictor`),
and the BTB, trace-cache and FTQ-request methods.  Cold paths stay
interpreter method calls: decode fixups and redirect, which run a few
times per thousand cycles (sharing them keeps the speculative-state
repair logic in exactly one place), and a fill-unit intern miss
(:meth:`repro.fetch.trace_cache._FillBuffer.derive`), which comes once
per distinct trace.

Only the four concrete engine classes are specialized; a subclass (or
any engine these templates do not know) silently gets its interpreted
``cycle`` bound into the core kernel instead.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.common.types import INSTRUCTION_BYTES, BranchKind
from repro.fetch.base import scan_run
from repro.fetch.ev8 import EV8FetchEngine
from repro.fetch.ftb import FTB_MAX_LENGTH, FTBFetchEngine
from repro.fetch.ftq import FetchRequest
from repro.fetch.stream import SEQUENTIAL_CHUNK, StreamFetchEngine
from repro.fetch.stream_predictor import MAX_STREAM_LENGTH, StreamRecord
from repro.fetch.trace_cache import (
    PLAN_NONE, PLAN_PRE, TraceCacheFetchEngine, fetch_plan,
)
from repro.fetch.trace_predictor import MAX_TRACE_BRANCHES, MAX_TRACE_LENGTH

from repro.accel.codegen import CompiledKernel, compile_kernel, splice

__all__ = ["cycle_kernel", "cycle_kernel_source", "make_kernels"]


#: Inlined RAS checkpoint capture (RAS.checkpoint transliterated):
#: one shared fragment spliced into every template so the capture
#: semantics live in exactly one place.
_RAS_CKPT = "(ras._sp, ras_slots[(ras._sp - 1) % $RAS_DEPTH if ras._sp else 0])"


def _common_consts(engine) -> dict:
    il1 = engine.mem.il1
    return {
        "WIDTH": engine.width,
        "LINE_BYTES": engine.line_bytes,
        "LINE_MASK": engine.line_bytes - 1,
        "DECODE_BUBBLE": engine.decode_bubble,
        # L1I geometry for the inlined MRU-hit probe fast path.
        "IL1_OFF": il1._offset_bits,
        "IL1_MASK": il1._index_mask,
        "IL1_SHIFT": il1._tag_shift,
        "RAS_DEPTH": engine.ras.depth,
    }


# ----------------------------------------------------------------------
# EV8: sequential fetch to the first predicted-taken branch
# ----------------------------------------------------------------------

_EV8_TEMPLATE = '''\
def make_kernels(engine):
    program = engine.program
    mem = engine.mem
    il1_cache = mem.il1
    il1_sets = il1_cache._sets
    il1_tail = il1_cache.access_tail
    fill_l2 = mem._fill_from_l2_instr
    stats_counts = engine.stats._counts
    predictor_predict = engine.predictor.predict
    predictor_update = engine.predictor.update
    bim_c = engine.predictor._bim
    g0_c = engine.predictor._g0
    g1_c = engine.predictor._g1
    meta_c = engine.predictor._meta
    history = engine.history
    ras = engine.ras
    ras_slots = ras._slots
    ras_push = engine.ras.push
    ras_pop = engine.ras.pop
    btb = engine.btb
    btb_sets = btb._sets
    btb_lookup = btb.lookup
    btb_update = btb.update
    scan_cache_get = program._scan_cache.get
    scan = scan_run
    image_start = engine._image_start
    image_end = engine._image_end
    KIND_NONE = BranchKind.NONE
    KIND_COND = BranchKind.COND
    KIND_JUMP = BranchKind.JUMP
    KIND_CALL = BranchKind.CALL
    KIND_RET = BranchKind.RET

    def cycle(now):
        if now < engine._busy_until or engine._waiting_resolve:
            return None
        addr = engine.fetch_addr
        to_slot_end = ($SLOT_BYTES - (addr & $SLOT_MASK)) >> 2
        window = $WIDTH if $WIDTH < to_slot_end else to_slot_end
        to_line_end = ($LINE_BYTES - (addr & $LINE_MASK)) >> 2
        if to_line_end < window:
            window = to_line_end
        if not image_start <= addr < image_end:
            engine._waiting_resolve = True
            return None
        il1_line = addr >> $IL1_OFF
        il1_tag = il1_line >> $IL1_SHIFT
        il1_ways = il1_sets[il1_line & $IL1_MASK]
        il1_cache.accesses += 1
        if not ((il1_ways and il1_ways[0] == il1_tag)
                or il1_tail(il1_ways, il1_tag)):
            extra = fill_l2(addr)
            if extra > 0:
                stats_counts["icache_miss_stalls"] += 1
                until = now + extra
                if until > engine._busy_until:
                    engine._busy_until = until
                return None

        hit = scan_cache_get((addr, window))
        if hit is None:
            hit = scan(program, addr, window)
        controls, avail = hit
        if avail == 0:
            engine._waiting_resolve = True
            return None
        window = avail

        bundle = []
        append = bundle.append
        cursor = addr
        next_fetch = addr + window * 4
        stalled = False
        emitted = 0

        for baddr, lb in controls:
            run = ((baddr - cursor) >> 2) + 1
            kind = lb.kind
            if kind is KIND_COND:
                hist_snap = history.spec
                # Inlined TwoBcGskew.predict: four skewed bank indexes
                # with the fold windows unrolled (sound below the fold
                # limit, which covers every simulated address) and the
                # e-gskew vote taken on the spot.
                word_p = baddr >> 2
                v1 = word_p ^ ((hist_snap & $H0_MASK) << 5) ^ (word_p << 2)
                h1 = hist_snap & $H1_MASK
                v2 = word_p ^ (h1 << 3) ^ (word_p << 7)
                v3 = word_p ^ (h1 << 9) ^ (word_p << 4)
                if (word_p < $PLIMIT and v1 < $PLIMIT and v2 < $PLIMIT
                        and v3 < $PLIMIT):
                    bim_i = (word_p ^ (word_p >> $PBITS) ^ (word_p >> $PB2)
                             ^ (word_p >> $PB3)) & $PMASK
                    g0_i = (v1 ^ (v1 >> $PBITS) ^ (v1 >> $PB2)
                            ^ (v1 >> $PB3)) & $PMASK
                    g1_i = (v2 ^ (v2 >> $PBITS) ^ (v2 >> $PB2)
                            ^ (v2 >> $PB3)) & $PMASK
                    meta_i = (v3 ^ (v3 >> $PBITS) ^ (v3 >> $PB2)
                              ^ (v3 >> $PB3)) & $PMASK
                    p_bim = bim_c[bim_i] >= 2
                    p_eskew = (p_bim + (g0_c[g0_i] >= 2)
                               + (g1_c[g1_i] >= 2)) >= 2
                    pred = p_eskew if meta_c[meta_i] >= 2 else p_bim
                    info = (bim_i, g0_i, g1_i, meta_i, p_bim, p_eskew)
                else:
                    pred, info = predictor_predict(baddr, hist_snap)
                history.spec = ((hist_snap << 1) | pred) & $HIST_MASK
                ckpt = ($RAS_CKPT, hist_snap)
                stats_counts["cond_predictions"] += 1
                if pred:
                    $BTB_LOOKUP
                    if entry is not None:
                        target = entry.target
                    else:
                        until = now + $DECODE_BUBBLE
                        if until > engine._busy_until:
                            engine._busy_until = until
                        stats_counts["decode_redirects"] += 1
                        target = lb.target_addr
                    append((cursor, run, target, ckpt, ("cond", info)))
                    emitted += run
                    next_fetch = target
                    cursor = None
                    break
                append((cursor, run, baddr + 4, ckpt, ("cond", info)))
                emitted += run
                cursor = baddr + 4
                continue
            if kind is KIND_JUMP or kind is KIND_CALL:
                $BTB_LOOKUP
                if entry is not None:
                    target = entry.target
                else:
                    until = now + $DECODE_BUBBLE
                    if until > engine._busy_until:
                        engine._busy_until = until
                    stats_counts["decode_redirects"] += 1
                    target = lb.target_addr
                if kind is KIND_CALL:
                    ras_push(baddr + 4)
                ckpt = ($RAS_CKPT, history.spec)
                append((cursor, run, target, ckpt, None))
                emitted += run
                next_fetch = target
                cursor = None
                break
            if kind is KIND_RET:
                $BTB_LOOKUP
                if entry is None:
                    until = now + $DECODE_BUBBLE
                    if until > engine._busy_until:
                        engine._busy_until = until
                    stats_counts["decode_redirects"] += 1
                target = ras_pop()
                ckpt = ($RAS_CKPT, history.spec)
                append((cursor, run, target, ckpt, None))
                emitted += run
                next_fetch = target
                cursor = None
                break
            # Indirect jump: only the BTB can supply a target at fetch.
            $BTB_LOOKUP
            ckpt = ($RAS_CKPT, history.spec)
            if entry is not None:
                append((cursor, run, entry.target, ckpt, None))
                next_fetch = entry.target
            else:
                append((cursor, run, None, ckpt, None))
                stats_counts["indirect_stalls"] += 1
                engine._waiting_resolve = True
                stalled = True
            emitted += run
            cursor = None
            break

        if cursor is not None:
            end = addr + window * 4
            if cursor < end:
                run = (end - cursor) >> 2
                append((cursor, run, end, None, None))
                emitted += run

        if not stalled:
            engine.fetch_addr = next_fetch
        engine.fetch_cycles += 1
        engine.fetched_instructions += emitted
        return bundle

    def note_commit(dyn, payload, mispredicted):
        kind = dyn.kind
        if kind is KIND_NONE:
            return
        taken = dyn.taken
        lbx = dyn.lb
        baddr = lbx.addr + (lbx.size - 1) * 4
        if kind is KIND_COND:
            if isinstance(payload, tuple) and payload[0] == "cond":
                predictor_update(payload[1], taken)
            else:
                # Fetched without an in-flight prediction (e.g. right
                # after a redirect): train with commit-time state.
                _, info = predictor_predict(baddr, history.commit)
                predictor_update(info, taken)
            history.commit = ((history.commit << 1) | taken) & $HIST_MASK
        btb_update(baddr, dyn.next_addr if taken else 0, kind, taken)

    return cycle, note_commit
'''


#: Inlined BTB lookup for the branch at ``baddr`` into ``entry``: the
#: MRU hit (with its lookup count) in line, anything else through
#: :meth:`~repro.branch.btb.BranchTargetBuffer.lookup`.
_BTB_LOOKUP = """\
word_b = baddr >> 2
ways_b = btb_sets[word_b & $BTB_SET_MASK]
if ways_b and ways_b[0].tag == word_b >> $BTB_TAG_SHIFT:
    btb.lookups += 1
    entry = ways_b[0]
else:
    entry = btb_lookup(baddr)
"""

_EV8_TEMPLATE = splice(_EV8_TEMPLATE, "BTB_LOOKUP", _BTB_LOOKUP)


def _ev8_consts(engine) -> dict:
    consts = _common_consts(engine)
    slot_bytes = engine.width * INSTRUCTION_BYTES
    consts["SLOT_BYTES"] = slot_bytes
    consts["SLOT_MASK"] = slot_bytes - 1
    consts["BTB_SET_MASK"] = engine.btb._index_mask
    consts["BTB_TAG_SHIFT"] = engine.btb._tag_shift
    # TwoBcGskew geometry for the inlined predict.
    predictor = engine.predictor
    bits = predictor._index_bits
    consts["PBITS"] = bits
    consts["PB2"] = 2 * bits
    consts["PB3"] = 3 * bits
    consts["PMASK"] = (1 << bits) - 1
    consts["PLIMIT"] = predictor._fold_limit
    consts["H0_MASK"] = predictor._h0_mask
    consts["H1_MASK"] = predictor._h1_mask
    consts["HIST_MASK"] = engine.history._mask
    return consts


# ----------------------------------------------------------------------
# FTB: decoupled fetch-target-buffer front-end + perceptron
# ----------------------------------------------------------------------

_FTB_TEMPLATE = '''\
def make_kernels(engine):
    program = engine.program
    mem = engine.mem
    il1_cache = mem.il1
    il1_sets = il1_cache._sets
    il1_tail = il1_cache.access_tail
    fill_l2 = mem._fill_from_l2_instr
    stats_counts = engine.stats._counts
    ftb = engine.ftb
    ftb_sets = ftb._sets
    ftb_lookup = engine.ftb.lookup
    ftb_update = engine.ftb.update
    ftb_probe = engine.ftb.probe
    predictor_predict = engine.predictor.predict
    predictor_update = engine.predictor.update
    perc_local = engine.predictor._local
    perc_base = engine.predictor._base
    perc_packed = engine.predictor._packed
    perc_tables = engine.predictor._tables
    table_get = list.__getitem__
    history = engine.history
    ras = engine.ras
    ras_slots = ras._slots
    ras_push = engine.ras.push
    ras_pop = engine.ras.pop
    ftq = engine.ftq
    ftq_queue = ftq._queue
    ftq_append = ftq_queue.append
    ftq_popleft = ftq_queue.popleft
    ftq_head = ftq.head
    ftq_capacity = ftq.capacity
    decode_fixup = engine._decode_fixup
    scan_cache_get = program._scan_cache.get
    scan = scan_run
    image_start = engine._image_start
    image_end = engine._image_end
    Request = FetchRequest
    KIND_NONE = BranchKind.NONE
    KIND_COND = BranchKind.COND
    KIND_CALL = BranchKind.CALL
    KIND_RET = BranchKind.RET

    def cycle(now):
        if engine._waiting_resolve:
            return None
        request = ftq_queue[0] if ftq_queue else None

        # -- prediction stage (FTB) ------------------------------------
        if len(ftq_queue) < ftq_capacity:
            pc = engine.predict_addr
            ckpt_pre = ($RAS_CKPT, history.spec)
            # Inlined FTB lookup MRU fast path (counters included).
            word_b = pc >> 2
            ways_b = ftb_sets[word_b & $FTB_SET_MASK]
            if ways_b and ways_b[0].tag == word_b >> $FTB_TAG_SHIFT:
                ftb.lookups += 1
                entry = ways_b[0]
            else:
                entry = ftb_lookup(pc)
            if entry is None:
                stats_counts["ftb_misses"] += 1
                nxt = pc + $FTB_MAX_BYTES
                req = Request.__new__(Request)
                req.start = pc
                req.remaining = $FTB_MAX_LENGTH
                req.terminal_kind = None
                req.pred_next = nxt
                req.payload = None
                req.ckpt = None
                req.ckpt_pre = ckpt_pre
                req.is_fallback = True
                req.descriptor = None
                ftq_append(req)
                ftq.pushes += 1
                engine.predict_addr = nxt
            else:
                stats_counts["ftb_hits"] += 1
                length = entry.length
                term_pc = pc + (length - 1) * 4
                payload = None
                kind = entry.kind
                if kind is KIND_NONE:
                    nxt = pc + length * 4
                    req = Request.__new__(Request)
                    req.start = pc
                    req.remaining = length
                    req.terminal_kind = None
                    req.pred_next = nxt
                    req.payload = None
                    req.ckpt = None
                    req.ckpt_pre = ckpt_pre
                    req.is_fallback = False
                    req.descriptor = None
                    ftq_append(req)
                    ftq.pushes += 1
                    engine.predict_addr = nxt
                else:
                    if kind is KIND_COND:
                        # Inlined PerceptronPredictor.predict: the packed
                        # dot product (see repro.branch.perceptron).
                        hist_f = history.spec
                        word_f = term_pc >> 2
                        pidx = word_f & $PP_MASK
                        lidx = word_f & $PL_MASK
                        bits_f = (((hist_f & $GH_MASK) << $LH_BITS)
                                  | perc_local[lidx])
                        select = sum(map(table_get, perc_tables,
                                         bits_f.to_bytes($PERC_BYTES,
                                                         "little")))
                        y = perc_base[pidx] + 2 * (
                            (perc_packed[pidx] & select) % $PERC_MODULUS
                            + $PERC_WMIN * bits_f.bit_count())
                        pred = y >= 0
                        info = (pidx, lidx, bits_f, y)
                        history.spec = ((hist_f << 1) | pred) & $HIST_MASK
                        payload = ("term", info)
                        nxt = entry.target if pred else term_pc + 4
                    elif kind is KIND_CALL:
                        ras_push(term_pc + 4)
                        nxt = entry.target
                    elif kind is KIND_RET:
                        nxt = ras_pop()
                    else:
                        nxt = entry.target
                    ckpt = ($RAS_CKPT, ckpt_pre[1])
                    req = Request.__new__(Request)
                    req.start = pc
                    req.remaining = length
                    req.terminal_kind = kind
                    req.pred_next = nxt
                    req.payload = payload
                    req.ckpt = ckpt
                    req.ckpt_pre = ckpt_pre
                    req.is_fallback = False
                    req.descriptor = None
                    ftq_append(req)
                    ftq.pushes += 1
                    engine.predict_addr = nxt

        if now < engine._busy_until or request is None:
            return None

        # -- instruction cache stage -----------------------------------
        addr = request.start
        if not image_start <= addr < image_end:
            engine._waiting_resolve = True
            return None
        il1_line = addr >> $IL1_OFF
        il1_tag = il1_line >> $IL1_SHIFT
        il1_ways = il1_sets[il1_line & $IL1_MASK]
        il1_cache.accesses += 1
        if not ((il1_ways and il1_ways[0] == il1_tag)
                or il1_tail(il1_ways, il1_tag)):
            extra = fill_l2(addr)
            if extra > 0:
                stats_counts["icache_miss_stalls"] += 1
                until = now + extra
                if until > engine._busy_until:
                    engine._busy_until = until
                return None
        n = request.remaining
        if $WIDTH < n:
            n = $WIDTH
        to_line_end = ($LINE_BYTES - (addr & $LINE_MASK)) >> 2
        if to_line_end < n:
            n = to_line_end
        hit = scan_cache_get((addr, n))
        if hit is None:
            hit = scan(program, addr, n)
        controls, avail = hit
        if avail == 0:
            engine._waiting_resolve = True
            return None
        if avail < n:
            n = avail
        if request.is_fallback:
            terminal_addr = None
        else:
            terminal_addr = addr + (request.remaining - 1) * 4

        bundle = []
        frag_start = addr
        end = addr + n * 4
        done_early = False
        emitted = 0
        append = bundle.append
        ckpt_pre = request.ckpt_pre

        for baddr, lb in controls:
            run = ((baddr - frag_start) >> 2) + 1
            if baddr == terminal_addr:
                append((frag_start, run, request.pred_next, request.ckpt,
                        request.payload))
                emitted += run
                done_early = True
                break
            if lb.kind is KIND_COND:
                append((frag_start, run, baddr + 4, ckpt_pre, None))
                emitted += run
                frag_start = baddr + 4
                continue
            if frag_start < baddr:
                append((frag_start, run - 1, baddr, None, None))
                emitted += run - 1
            decode_fixup(now, bundle, baddr, lb)
            emitted += 1
            done_early = True
            break

        if not done_early and frag_start < end:
            run = (end - frag_start) >> 2
            append((frag_start, run, end, None, None))
            emitted += run

        if done_early:
            # A decode fixup may already have flushed the queue.
            if ftq_head() is request:
                ftq_popleft()
        else:
            # Inlined request.consume(n) (Fig. 6 in-place update).
            if n > request.remaining:
                raise ValueError(
                    f"cannot consume {n} of {request.remaining}"
                )
            request.start += n * 4
            request.remaining -= n
            if request.remaining == 0:
                ftq_popleft()

        engine.fetch_cycles += 1
        engine.fetched_instructions += emitted
        return bundle

    def note_commit(dyn, payload, mispredicted):
        c_len = engine._c_len + dyn.size
        kind = dyn.kind
        c_start = engine._c_start
        # Spill max-length sequential chunks (fetch-side stepping).
        while c_len > $FTB_MAX_LENGTH:
            nxt = c_start + $FTB_MAX_BYTES
            ftb_update(c_start, $FTB_MAX_LENGTH, nxt, KIND_NONE)
            c_start = nxt
            c_len -= $FTB_MAX_LENGTH
        if kind is KIND_NONE:
            engine._c_start = c_start
            engine._c_len = c_len
            return
        lbx = dyn.lb
        term_pc = lbx.addr + (lbx.size - 1) * 4
        if kind is KIND_COND:
            taken = dyn.taken
            if taken:
                ftb_update(c_start, c_len, dyn.next_addr, kind)
                if isinstance(payload, tuple) and payload[0] == "term":
                    predictor_update(payload[1], True)
                else:
                    _, info = predictor_predict(term_pc, history.commit)
                    predictor_update(info, True)
                history.commit = ((history.commit << 1) | 1) & $HIST_MASK
                engine._c_start = dyn.next_addr
                engine._c_len = 0
                return
            entry = ftb_probe(c_start)
            if (entry is not None
                    and c_start + (entry.length - 1) * 4 == term_pc):
                # An ever-taken branch always ends the fetch block,
                # even on its not-taken instances.
                if isinstance(payload, tuple) and payload[0] == "term":
                    predictor_update(payload[1], False)
                else:
                    _, info = predictor_predict(term_pc, history.commit)
                    predictor_update(info, False)
                history.commit = (history.commit << 1) & $HIST_MASK
                engine._c_start = term_pc + 4
                engine._c_len = 0
                return
            # Otherwise the branch is invisible to the FTB.
            engine._c_start = c_start
            engine._c_len = c_len
            return
        # Unconditional controls always terminate the block.
        ftb_update(c_start, c_len, dyn.next_addr, kind)
        engine._c_start = dyn.next_addr
        engine._c_len = 0

    return cycle, note_commit
'''


def _ftb_consts(engine) -> dict:
    consts = _common_consts(engine)
    consts["FTB_MAX_LENGTH"] = FTB_MAX_LENGTH
    consts["FTB_MAX_BYTES"] = FTB_MAX_LENGTH * INSTRUCTION_BYTES
    consts["FTB_SET_MASK"] = engine.ftb._mask
    consts["FTB_TAG_SHIFT"] = engine.ftb._tag_shift
    # Perceptron geometry for the inlined dot product.
    predictor = engine.predictor
    consts["PP_MASK"] = predictor._pidx_mask
    consts["PL_MASK"] = predictor._lidx_mask
    consts["GH_MASK"] = predictor._ghist_mask
    consts["LH_BITS"] = predictor._lh_bits
    consts["PERC_BYTES"] = predictor._n_bytes
    consts["PERC_MODULUS"] = predictor._modulus
    consts["PERC_WMIN"] = predictor._wmin
    consts["HIST_MASK"] = engine.history._mask
    return consts


# ----------------------------------------------------------------------
# Stream: next stream predictor + FTQ + wide-line instruction cache
# ----------------------------------------------------------------------

_STREAM_TEMPLATE = '''\
def make_kernels(engine):
    program = engine.program
    mem = engine.mem
    il1_cache = mem.il1
    il1_sets = il1_cache._sets
    il1_tail = il1_cache.access_tail
    fill_l2 = mem._fill_from_l2_instr
    stats_counts = engine.stats._counts
    predictor_predict = engine.predictor.predict
    predictor_update = engine.predictor.update
    path = engine.path
    commit = path.commit
    s_partials = engine._s_partials
    ras = engine.ras
    ras_slots = ras._slots
    ras_push = engine.ras.push
    ras_pop = engine.ras.pop
    ftq = engine.ftq
    ftq_queue = ftq._queue
    ftq_append = ftq_queue.append
    ftq_popleft = ftq_queue.popleft
    ftq_flush = ftq.flush
    ftq_capacity = ftq.capacity
    decode_fixup = engine._decode_fixup
    scan_cache_get = program._scan_cache.get
    scan = scan_run
    image_start = engine._image_start
    image_end = engine._image_end
    Request = FetchRequest
    KIND_NONE = BranchKind.NONE
    KIND_COND = BranchKind.COND
    KIND_CALL = BranchKind.CALL
    KIND_RET = BranchKind.RET

    def cycle(now):
        if engine._waiting_resolve:
            return None
        request = ftq_queue[0] if ftq_queue else None

        # -- next stream predictor stage -------------------------------
        if len(ftq_queue) < ftq_capacity:
            pc = engine.predict_addr
            prediction = predictor_predict(path.spec, pc)
            if prediction is None:
                engine._skip_next_path_push = False
                stats_counts["stream_pred_misses"] += 1
                nxt = pc + $SEQ_CHUNK_BYTES
                ftq_append(Request(pc, $SEQ_CHUNK, None, nxt, None, None,
                                   ($RAS_CKPT, tuple(path.spec)), True))
                ftq.pushes += 1
                engine.predict_addr = nxt
            else:
                stats_counts["stream_pred_hits"] += 1
                spec = path.spec
                if engine._skip_next_path_push:
                    engine._skip_next_path_push = False
                else:
                    spec.append(pc)  # inlined path.spec_push
                    if len(spec) > $PATH_DEPTH:
                        del spec[0]
                kind = prediction.kind
                length = prediction.length
                ras_pre = $RAS_CKPT
                if kind is KIND_RET:
                    nxt = ras_pop()
                elif kind is KIND_CALL:
                    ras_push(pc + length * 4)
                    nxt = prediction.next_addr
                else:
                    nxt = prediction.next_addr
                path_snap = tuple(spec)
                ftq_append(Request(pc, length,
                                   kind if kind is not KIND_NONE else None,
                                   nxt, None, ($RAS_CKPT, path_snap),
                                   (ras_pre, path_snap)))
                ftq.pushes += 1
                engine.predict_addr = nxt

        if now < engine._busy_until or request is None:
            return None

        # -- instruction cache stage -----------------------------------
        addr = request.start
        if not image_start <= addr < image_end:
            engine._waiting_resolve = True
            return None
        il1_line = addr >> $IL1_OFF
        il1_tag = il1_line >> $IL1_SHIFT
        il1_ways = il1_sets[il1_line & $IL1_MASK]
        il1_cache.accesses += 1
        if not ((il1_ways and il1_ways[0] == il1_tag)
                or il1_tail(il1_ways, il1_tag)):
            extra = fill_l2(addr)
            if extra > 0:
                stats_counts["icache_miss_stalls"] += 1
                until = now + extra
                if until > engine._busy_until:
                    engine._busy_until = until
                return None
        n = request.remaining
        if $WIDTH < n:
            n = $WIDTH
        to_line_end = ($LINE_BYTES - (addr & $LINE_MASK)) >> 2
        if to_line_end < n:
            n = to_line_end
        hit = scan_cache_get((addr, n))
        if hit is None:
            hit = scan(program, addr, n)
        controls, avail = hit
        if avail == 0:
            engine._waiting_resolve = True
            return None
        if avail < n:
            n = avail
        if request.terminal_kind is not None:
            terminal_addr = addr + (request.remaining - 1) * 4
        else:
            terminal_addr = None

        bundle = []
        frag_start = addr
        end = addr + n * 4
        done_early = False
        emitted = 0
        append = bundle.append
        ckpt_pre = request.ckpt_pre

        for baddr, lb in controls:
            if terminal_addr is not None and terminal_addr < baddr:
                break  # stale-length terminal before the next control
            run = ((baddr - frag_start) >> 2) + 1
            if baddr == terminal_addr:
                append((frag_start, run, request.pred_next, request.ckpt,
                        request.payload))
                emitted += run
                done_early = True
                break
            if lb.kind is KIND_COND:
                append((frag_start, run, baddr + 4, ckpt_pre, None))
                emitted += run
                frag_start = baddr + 4
                continue
            if frag_start < baddr:
                append((frag_start, run - 1, baddr, None, None))
                emitted += run - 1
            decode_fixup(now, bundle, baddr, lb)
            emitted += 1
            done_early = True
            break

        if not done_early:
            if (terminal_addr is not None
                    and frag_start <= terminal_addr < end):
                stats_counts["length_misfetches"] += 1
                run = ((terminal_addr - frag_start) >> 2) + 1
                append((frag_start, run, terminal_addr + 4, None, None))
                emitted += run
                ftq_flush()
                engine.predict_addr = terminal_addr + 4
                done_early = True
            elif frag_start < end:
                run = (end - frag_start) >> 2
                append((frag_start, run, end, None, None))
                emitted += run

        if done_early:
            # A decode fixup may already have flushed the queue.
            if ftq_queue and ftq_queue[0] is request:
                ftq_popleft()
        else:
            # Inlined request.consume(n) (Fig. 6 in-place update).
            if n > request.remaining:
                raise ValueError(
                    f"cannot consume {n} of {request.remaining}"
                )
            request.start += n * 4
            request.remaining -= n
            if request.remaining == 0:
                ftq_popleft()

        engine.fetch_cycles += 1
        engine.fetched_instructions += emitted
        return bundle

    def record_run(start, length, dyn, mispredicted, push_history):
        # One (possibly capped) stream ending at ``dyn``.
        if length <= 0:
            return
        while length > $MAX_STREAM_LENGTH:
            record = StreamRecord(start, $MAX_STREAM_LENGTH, KIND_NONE,
                                  start + $MAX_STREAM_BYTES)
            predictor_update(commit, record, False)
            if push_history:
                commit.append(start)
                if len(commit) > $PATH_DEPTH:
                    del commit[0]
            start += $MAX_STREAM_BYTES
            length -= $MAX_STREAM_LENGTH
        record = StreamRecord(start, length, dyn.kind, dyn.next_addr)
        predictor_update(commit, record, mispredicted)
        if push_history:
            commit.append(start)  # inlined path.commit_push
            if len(commit) > $PATH_DEPTH:
                del commit[0]

    def note_commit(dyn, payload, mispredicted):
        size = dyn.size
        if not dyn.taken:
            if mispredicted:
                s_partials.append((dyn.next_addr, engine._s_len + size))
                engine._s_mispredicted = True
            engine._s_len += size
            return
        s_len = engine._s_len + size
        s_misp = engine._s_mispredicted or mispredicted
        record_run(engine._s_start, s_len, dyn, s_misp, True)
        for partial_start, offset in s_partials:
            record_run(partial_start, s_len - offset, dyn, False, False)
            stats_counts["partial_streams_committed"] += 1
        stats_counts["streams_committed"] += 1
        stats_counts["stream_instructions"] += s_len
        engine._s_start = dyn.next_addr
        engine._s_len = 0
        engine._s_mispredicted = False
        s_partials.clear()

    return cycle, note_commit
'''


def _stream_consts(engine) -> dict:
    consts = _common_consts(engine)
    consts["SEQ_CHUNK"] = SEQUENTIAL_CHUNK
    consts["SEQ_CHUNK_BYTES"] = SEQUENTIAL_CHUNK * INSTRUCTION_BYTES
    consts["MAX_STREAM_LENGTH"] = MAX_STREAM_LENGTH
    consts["MAX_STREAM_BYTES"] = MAX_STREAM_LENGTH * INSTRUCTION_BYTES
    consts["PATH_DEPTH"] = engine.path.depth
    return consts


# ----------------------------------------------------------------------
# Trace cache: next trace predictor + trace store + BTB build path
# ----------------------------------------------------------------------

_TRACE_TEMPLATE = '''\
def make_kernels(engine):
    program = engine.program
    mem = engine.mem
    il1_cache = mem.il1
    il1_sets = il1_cache._sets
    il1_tail = il1_cache.access_tail
    fill_l2 = mem._fill_from_l2_instr
    stats_counts = engine.stats._counts
    predictor_predict = engine.predictor.predict
    history = engine.history
    history_spec_push = history.spec_push
    commit = history.commit
    ras = engine.ras
    ras_slots = ras._slots
    ras_push = engine.ras.push
    ras_pop = engine.ras.pop
    btb_lookup = engine.btb.lookup
    btb_update = engine.btb.update
    trace_cache = engine.trace_cache
    tc_lookup = trace_cache.lookup
    tc_partial_match = trace_cache.partial_match
    tc_insert = trace_cache.insert
    store_all = not engine.selective_storage
    predictor_update = engine.predictor.update
    fill = engine._fill
    pieces = fill.pieces
    pieces_append = pieces.append
    pieces_clear = pieces.clear
    intern_get = fill._intern.get
    fill_derive = fill.derive
    ftq = engine.ftq
    ftq_queue = ftq._queue
    ftq_append = ftq_queue.append
    ftq_popleft = ftq_queue.popleft
    ftq_capacity = ftq.capacity
    scan_cache_get = program._scan_cache.get
    scan = scan_run
    image_start = engine._image_start
    image_end = engine._image_end
    Request = FetchRequest
    KIND_NONE = BranchKind.NONE
    KIND_COND = BranchKind.COND
    KIND_JUMP = BranchKind.JUMP
    KIND_CALL = BranchKind.CALL
    KIND_RET = BranchKind.RET
    KIND_IND = BranchKind.IND

    def emit_run(bundle, request, descriptor, addr, count):
        # One run from the current segment position, split at interior
        # conditionals; the final prediction comes from the trace.
        segments = descriptor.segments
        last_idx = len(segments) - 1
        seg_idx = engine._seg_idx
        seg_off = engine._seg_off
        end = addr + count * 4
        at_boundary = seg_off + count == segments[seg_idx][1]
        skip_addr = end - 4 if at_boundary else -1
        ckpt_pre = request.ckpt_pre
        append = bundle.append
        frag_start = addr
        hit = scan_cache_get((addr, count))
        if hit is None:
            hit = scan(program, addr, count)
        for baddr, lb in hit[0]:
            if baddr != skip_addr and lb.kind is KIND_COND:
                run = ((baddr - frag_start) >> 2) + 1
                append((frag_start, run, baddr + 4, ckpt_pre, None))
                frag_start = baddr + 4
        if at_boundary:
            run = (end - frag_start) >> 2
            if seg_idx == last_idx:
                append((frag_start, run, request.pred_next, request.ckpt,
                        request.payload))
            else:
                append((frag_start, run, segments[seg_idx + 1][0],
                        ckpt_pre, None))
            engine._seg_idx = seg_idx + 1
            engine._seg_off = 0
        else:
            if frag_start < end:
                append((frag_start, (end - frag_start) >> 2, end,
                        None, None))
            engine._seg_off = seg_off + count

    def build_fetch(now):
        # Secondary path: BTB-guided build fetch on a predictor miss.
        addr = engine.predict_addr
        if not image_start <= addr < image_end:
            engine._waiting_resolve = True
            return None
        il1_line = addr >> $IL1_OFF
        il1_tag = il1_line >> $IL1_SHIFT
        il1_ways = il1_sets[il1_line & $IL1_MASK]
        il1_cache.accesses += 1
        if not ((il1_ways and il1_ways[0] == il1_tag)
                or il1_tail(il1_ways, il1_tag)):
            extra = fill_l2(addr)
            if extra > 0:
                stats_counts["icache_miss_stalls"] += 1
                until = now + extra
                if until > engine._busy_until:
                    engine._busy_until = until
                return None
        window = $WIDTH
        to_line_end = ($LINE_BYTES - (addr & $LINE_MASK)) >> 2
        if to_line_end < window:
            window = to_line_end
        hit = scan_cache_get((addr, window))
        if hit is None:
            hit = scan(program, addr, window)
        controls, avail = hit
        if avail == 0:
            engine._waiting_resolve = True
            return None
        window = avail

        bundle = []
        append = bundle.append
        frag_start = addr
        next_fetch = addr + window * 4
        stalled = False
        emitted = 0
        conds = 0
        terminal_taken = False
        for baddr, lb in controls:
            run = ((baddr - frag_start) >> 2) + 1
            kind = lb.kind
            entry = btb_lookup(baddr)
            ckpt = ($RAS_CKPT, tuple(history.spec))
            if kind is KIND_COND:
                conds += 1
                taken = entry is not None and entry.predict_taken
                if taken:
                    append((frag_start, run, entry.target, ckpt, None))
                    emitted += run
                    next_fetch = entry.target
                    terminal_taken = True
                    frag_start = None
                    break
                append((frag_start, run, baddr + 4, ckpt, None))
                emitted += run
                frag_start = baddr + 4
                continue
            if kind is KIND_JUMP or kind is KIND_CALL:
                if entry is None:
                    until = now + $DECODE_BUBBLE
                    if until > engine._busy_until:
                        engine._busy_until = until
                    stats_counts["decode_redirects"] += 1
                target = lb.target_addr
                if kind is KIND_CALL:
                    ras_push(baddr + 4)
                append((frag_start, run, target,
                        ($RAS_CKPT, ckpt[1]), None))
                emitted += run
                next_fetch = target
                terminal_taken = True
                frag_start = None
                break
            if kind is KIND_RET:
                if entry is None:
                    until = now + $DECODE_BUBBLE
                    if until > engine._busy_until:
                        engine._busy_until = until
                    stats_counts["decode_redirects"] += 1
                target = ras_pop()
                append((frag_start, run, target,
                        ($RAS_CKPT, ckpt[1]), None))
                emitted += run
                next_fetch = target
                terminal_taken = True
                frag_start = None
                break
            # Indirect.
            if entry is not None:
                append((frag_start, run, entry.target, ckpt, None))
                next_fetch = entry.target
                terminal_taken = True
            else:
                append((frag_start, run, None, ckpt, None))
                stats_counts["indirect_stalls"] += 1
                engine._waiting_resolve = True
                stalled = True
            emitted += run
            frag_start = None
            break

        if frag_start is not None:
            end = addr + window * 4
            if frag_start < end:
                run = (end - frag_start) >> 2
                append((frag_start, run, end, None, None))
                emitted += run
        if not stalled:
            engine.predict_addr = next_fetch
            # Inlined _spec_fill_advance: emulate fill-unit boundaries.
            sl = engine._spec_fill_len + emitted
            sc = engine._spec_fill_conds + conds
            if (sl >= $MAX_TRACE_LENGTH or sc >= $MAX_TRACE_BRANCHES
                    or terminal_taken):
                history_spec_push(engine._spec_fill_start)
                engine._spec_fill_start = next_fetch
                engine._spec_fill_len = 0
                engine._spec_fill_conds = 0
            else:
                engine._spec_fill_len = sl
                engine._spec_fill_conds = sc
        stats_counts["build_cycles"] += 1
        engine.fetch_cycles += 1
        engine.fetched_instructions += emitted
        return bundle

    def cycle(now):
        if engine._waiting_resolve:
            return None
        request = ftq_queue[0] if ftq_queue else None

        # -- next trace predictor stage --------------------------------
        predictor_missed = False
        if len(ftq_queue) < ftq_capacity:
            pc = engine.predict_addr
            descriptor = predictor_predict(history.spec, pc)
            if descriptor is None:
                stats_counts["trace_pred_misses"] += 1
                predictor_missed = True
            else:
                stats_counts["trace_pred_hits"] += 1
                ras_pre = $RAS_CKPT
                spec = history.spec
                spec.append(descriptor.start)  # inlined spec_push
                if len(spec) > $PATH_DEPTH:
                    del spec[0]
                hist_snap = tuple(spec)
                for return_addr in descriptor.call_returns:
                    ras_push(return_addr)
                if descriptor.terminal_kind is KIND_RET:
                    nxt = ras_pop()
                else:
                    nxt = descriptor.next_addr
                tk = descriptor.terminal_kind
                ftq_append(Request(descriptor.start, descriptor.length,
                                   tk if tk is not KIND_NONE else None,
                                   nxt, None, ($RAS_CKPT, hist_snap),
                                   (ras_pre, hist_snap), False, descriptor))
                ftq.pushes += 1
                engine.predict_addr = nxt
                engine._spec_fill_start = nxt
                engine._spec_fill_len = 0
                engine._spec_fill_conds = 0

        if now < engine._busy_until:
            return None

        if request is not None:
            # -- primary path: trace cache / descriptor-guided icache --
            descriptor = request.descriptor
            if request is not engine._cur_req:
                engine._cur_req = request
                engine._seg_idx = 0
                engine._seg_off = 0
                engine._prefix_left = 0
                hit = tc_lookup(descriptor)
                if hit:
                    stats_counts["tc_hits"] += 1
                    plan = descriptor.plan
                    if plan is None:
                        plan = descriptor.plan = fetch_plan(
                            program, descriptor, $WIDTH)
                    engine._plan = plan
                else:
                    if $PARTIAL_MATCHING:
                        partial = tc_partial_match(descriptor)
                        if partial is not None and partial.interior_taken:
                            engine._prefix_left = (
                                partial.length
                                if partial.length < descriptor.length
                                else descriptor.length
                            )
                            stats_counts["tc_partial_hits"] += 1
                    stats_counts["tc_misses"] += 1
                engine._tc_hit = hit

            if engine._tc_hit:
                # Trace cache hit: replay this cycle of the fetch plan
                # (the skeletons of _deliver_from_trace_cache's fragments).
                frags, emitted, seg_idx, seg_off, step = engine._plan
                bundle = []
                append = bundle.append
                for code, start, count, pred_next in frags:
                    if code == $PLAN_PRE:
                        append((start, count, pred_next, request.ckpt_pre,
                                None))
                    elif code == $PLAN_NONE:
                        append((start, count, pred_next, None, None))
                    else:
                        append((start, count, request.pred_next,
                                request.ckpt, request.payload))
                engine._seg_idx = seg_idx
                engine._seg_off = seg_off
                if step is None:
                    ftq_popleft()
                    engine._cur_req = None
                    engine._tc_hit = None
                else:
                    engine._plan = step
                engine.fetch_cycles += 1
                engine.fetched_instructions += emitted
                return bundle

            if $PARTIAL_MATCHING and engine._prefix_left > 0:
                # Partially-matched prefix delivery, at trace cache speed.
                bundle = []
                emitted = 0
                budget = $WIDTH
                if engine._prefix_left < budget:
                    budget = engine._prefix_left
                segments = descriptor.segments
                nseg = len(segments)
                while budget and engine._seg_idx < nseg:
                    seg_addr, seg_len = segments[engine._seg_idx]
                    addr = seg_addr + engine._seg_off * 4
                    take = seg_len - engine._seg_off
                    if budget < take:
                        take = budget
                    emit_run(bundle, request, descriptor, addr, take)
                    emitted += take
                    budget -= take
                    engine._prefix_left -= take
                if engine._seg_idx >= nseg:
                    ftq_popleft()
                    engine._cur_req = None
                    engine._tc_hit = None
                if not bundle:
                    return None
                engine.fetch_cycles += 1
                engine.fetched_instructions += emitted
                return bundle

            # Trace cache miss: rebuild from the instruction cache.
            seg_addr, seg_len = descriptor.segments[engine._seg_idx]
            addr = seg_addr + engine._seg_off * 4
            if not image_start <= addr < image_end:
                engine._waiting_resolve = True
                return None
            il1_line = addr >> $IL1_OFF
            il1_tag = il1_line >> $IL1_SHIFT
            il1_ways = il1_sets[il1_line & $IL1_MASK]
            il1_cache.accesses += 1
            if not ((il1_ways and il1_ways[0] == il1_tag)
                    or il1_tail(il1_ways, il1_tag)):
                extra = fill_l2(addr)
                if extra > 0:
                    stats_counts["icache_miss_stalls"] += 1
                    until = now + extra
                    if until > engine._busy_until:
                        engine._busy_until = until
                    return None
            take = seg_len - engine._seg_off
            if $WIDTH < take:
                take = $WIDTH
            to_line_end = ($LINE_BYTES - (addr & $LINE_MASK)) >> 2
            if to_line_end < take:
                take = to_line_end
            bundle = []
            emit_run(bundle, request, descriptor, addr, take)
            if engine._seg_idx >= len(descriptor.segments):
                ftq_popleft()
                engine._cur_req = None
                engine._tc_hit = None
            if not bundle:
                return None
            engine.fetch_cycles += 1
            engine.fetched_instructions += take
            return bundle

        if predictor_missed and not ftq_queue:
            return build_fetch(now)
        return None

    def finalize(kind, next_addr):
        # Inlined fill.finalize and engine._finalize_trace: intern probe
        # (derive on a miss), predictor update, commit path push and
        # (selective) trace cache fill.
        key = (tuple(pieces), kind, next_addr)
        descriptor = intern_get(key)
        if descriptor is None:
            descriptor = fill_derive(key)
        mispredicted = fill.mispredicted
        pieces_clear()
        fill.length = 0
        fill.conds = 0
        fill.mispredicted = False
        predictor_update(commit, descriptor, mispredicted)
        commit.append(descriptor.start)  # inlined history.commit_push
        if len(commit) > $PATH_DEPTH:
            del commit[0]
        if store_all or descriptor.interior_taken:
            tc_insert(descriptor)
        else:
            trace_cache.selective_skips += 1
        stats_counts["traces_committed"] += 1

    def note_commit(dyn, payload, mispredicted):
        kind = dyn.kind
        if kind is not KIND_NONE:
            lbx = dyn.lb
            btb_update(lbx.addr + (lbx.size - 1) * 4,
                       dyn.next_addr if dyn.taken else 0, kind, dyn.taken)

        if mispredicted:
            fill.mispredicted = True
        size = dyn.size
        fill_len = fill.length + size
        if fill_len <= $MAX_TRACE_LENGTH:
            pieces_append(dyn)
        else:
            # Length-capped pieces: a block larger than the remaining
            # trace space splits the trace at the cap boundary.
            fill_len -= size
            off = 0
            while off < size:
                space = $MAX_TRACE_LENGTH - fill_len
                if space == 0:
                    finalize(KIND_NONE, dyn.addr + off * 4)
                    fill_len = 0
                    continue
                take = size - off
                if space < take:
                    take = space
                pieces_append(dyn if take == size else (dyn, off, take))
                fill_len += take
                off += take
        fill.length = fill_len
        if kind is KIND_NONE:
            return

        if kind is KIND_COND:
            conds = fill.conds + 1
            fill.conds = conds
        else:
            conds = fill.conds
        if (
            fill_len >= $MAX_TRACE_LENGTH
            or conds >= $MAX_TRACE_BRANCHES
            or kind is KIND_RET
            or kind is KIND_IND
            or mispredicted
        ):
            finalize(kind, dyn.next_addr)

    return cycle, note_commit
'''


def _trace_consts(engine) -> dict:
    consts = _common_consts(engine)
    consts["MAX_TRACE_LENGTH"] = MAX_TRACE_LENGTH
    consts["MAX_TRACE_BRANCHES"] = MAX_TRACE_BRANCHES
    consts["PARTIAL_MATCHING"] = bool(engine.partial_matching)
    consts["PATH_DEPTH"] = engine.history.depth
    consts["PLAN_NONE"] = PLAN_NONE
    consts["PLAN_PRE"] = PLAN_PRE
    return consts


for _tpl_name in ("_EV8_TEMPLATE", "_FTB_TEMPLATE", "_STREAM_TEMPLATE",
                  "_TRACE_TEMPLATE"):
    globals()[_tpl_name] = globals()[_tpl_name].replace("$RAS_CKPT",
                                                        _RAS_CKPT)

_NAMESPACE = {
    "BranchKind": BranchKind,
    "FetchRequest": FetchRequest,
    "StreamRecord": StreamRecord,
    "fetch_plan": fetch_plan,
    "scan_run": scan_run,
}

#: Exact engine classes we know how to specialize.  A subclass gets its
#: interpreted ``cycle``/``note_commit`` instead — its overrides must
#: keep working.
_SPECS = {
    EV8FetchEngine: ("cycle:ev8", _EV8_TEMPLATE, _ev8_consts),
    FTBFetchEngine: ("cycle:ftb", _FTB_TEMPLATE, _ftb_consts),
    StreamFetchEngine: ("cycle:stream", _STREAM_TEMPLATE, _stream_consts),
    TraceCacheFetchEngine: ("cycle:trace", _TRACE_TEMPLATE, _trace_consts),
}


def cycle_kernel(engine) -> Optional[CompiledKernel]:
    """The compiled cycle/commit kernel for ``engine`` (None if unknown)."""
    spec = _SPECS.get(type(engine))
    if spec is None:
        return None
    name, template, consts_fn = spec
    consts = consts_fn(engine)
    config_key = tuple(sorted(consts.items()))
    return compile_kernel(
        name, config_key, template, consts, _NAMESPACE, "make_kernels",
    )


def make_kernels(engine) -> Tuple[Optional[Callable], Optional[Callable]]:
    """Specialized ``(cycle, note_commit)`` closures for ``engine``.

    ``(None, None)`` when the engine class has no specialization — the
    core kernel then binds the interpreted bound methods instead.
    """
    kernel = cycle_kernel(engine)
    if kernel is None:
        return None, None
    return kernel.factory(engine)


def cycle_kernel_source(engine) -> Optional[str]:
    """The generated source text for ``engine``'s cycle kernel."""
    kernel = cycle_kernel(engine)
    return None if kernel is None else kernel.source
