"""The stream fetch engine — the paper's contribution (§3, Fig. 4).

Structure per cycle:

* the **next stream predictor** produces one fetch request per cycle —
  a whole instruction stream (start address + length + terminating
  branch type + next stream address) — into the FTQ;
* the **instruction cache** is driven by FTQ requests, one (very wide)
  line per cycle, delivering up to ``width`` instructions; requests
  larger than one access are updated in place (Fig. 6);
* there is a **single instruction path** and a **single predictor**: on
  a stream predictor miss the engine falls back to *sequential
  fetching* — no back-up predictor, no second instruction store.

All branches inside a stream are implicitly predicted not-taken; the
terminating branch is implicitly taken.  A misprediction does *not*
roll back the stream: the processor redirects fetch to the correct
address and the run from there to the next taken branch forms a
*partial stream* with its own predictor entry.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.history import PathHistory
from repro.branch.ras import ReturnAddressStack
from repro.common.params import MachineParams
from repro.common.types import INSTRUCTION_BYTES, BranchKind
from repro.fetch.base import FetchEngine, FetchFragment, scan_run
from repro.fetch.ftq import FetchRequest, FetchTargetQueue
from repro.fetch.stream_predictor import (
    MAX_STREAM_LENGTH,
    NextStreamPredictor,
    StreamPredictorConfig,
    StreamRecord,
)
from repro.isa.program import Program
from repro.isa.trace import DynBlock
from repro.memory.hierarchy import MemoryHierarchy

#: Instructions per sequential-fallback fetch request.
SEQUENTIAL_CHUNK = 16


class StreamFetchEngine(FetchEngine):
    """Next stream predictor + FTQ + wide-line instruction cache."""

    name = "stream"

    def __init__(
        self,
        program: Program,
        machine: MachineParams,
        mem: MemoryHierarchy,
        predictor_config: StreamPredictorConfig | None = None,
        ras_depth: int = 8,
    ) -> None:
        super().__init__(program, machine, mem)
        self.predictor = NextStreamPredictor(predictor_config)
        self.ras = ReturnAddressStack(ras_depth)
        self.path = PathHistory(self.predictor.config.dolc.depth)
        self.ftq = FetchTargetQueue(machine.core.ftq_entries)
        self.predict_addr = program.entry_address
        # Commit-side stream reconstruction.
        self._s_start = program.entry_address
        self._s_len = 0
        self._s_mispredicted = False
        # Partial streams pending inside the current stream:
        # (start address, instructions consumed before it).
        self._s_partials: list = []
        # After a redirect from a fell-through stream terminal, the next
        # prediction is a partial stream; its start is not pushed to the
        # path history (the commit side does not push partials either).
        self._skip_next_path_push = False

    # ------------------------------------------------------------------
    def cycle(self, now: int) -> Optional[List[FetchFragment]]:
        if self._waiting_resolve:
            return None
        queue = self.ftq._queue
        request = queue[0] if queue else None
        self._predict_stage(now)
        if now < self._busy_until or request is None:
            return None
        return self._fetch_stage(now, request)

    # -- next stream predictor stage ---------------------------------------
    def _predict_stage(self, now: int) -> None:
        ftq = self.ftq
        if len(ftq._queue) >= ftq.capacity:
            return
        pc = self.predict_addr
        prediction = self.predictor.predict(self.path.spec_view(), pc)
        if prediction is None:
            # No stream known here: fall back to sequential fetching
            # (no back-up predictor in this architecture).  A pending
            # partial-stream push skip is consumed here too: the partial
            # is being fetched via fallback and is never pushed.
            self._skip_next_path_push = False
            self.stats.add("stream_pred_misses")
            ckpt_pre = (self.ras.checkpoint(), tuple(self.path.spec))
            nxt = pc + SEQUENTIAL_CHUNK * INSTRUCTION_BYTES
            self.ftq.push(
                FetchRequest(pc, SEQUENTIAL_CHUNK, None, nxt,
                             ckpt_pre=ckpt_pre, is_fallback=True)
            )
            self.predict_addr = nxt
            return
        self.stats.add("stream_pred_hits")
        if self._skip_next_path_push:
            self._skip_next_path_push = False
        else:
            self.path.spec_push(pc)
        kind = prediction.kind
        ras_pre = self.ras.checkpoint()
        if kind is BranchKind.RET:
            nxt = self.ras.pop()
        elif kind is BranchKind.CALL:
            self.ras.push(pc + prediction.length * INSTRUCTION_BYTES)
            nxt = prediction.next_addr
        else:
            nxt = prediction.next_addr
        path_snap = tuple(self.path.spec)
        # Intermediate branches restore to before the terminal's RAS
        # operation; the terminal restores to just after its own.
        ckpt_pre = (ras_pre, path_snap)
        ckpt = (self.ras.checkpoint(), path_snap)
        terminal = kind if kind is not BranchKind.NONE else None
        self.ftq.push(
            FetchRequest(pc, prediction.length, terminal, nxt, None, ckpt,
                         ckpt_pre=ckpt_pre)
        )
        self.predict_addr = nxt

    # -- instruction cache stage --------------------------------------------
    def _fetch_stage(
        self, now: int, request: FetchRequest
    ) -> Optional[List[FetchFragment]]:
        addr = request.start
        if not self._on_image(addr):
            self._waiting_resolve = True
            return None
        if not self._fetch_line(now, addr):
            return None
        n = min(self.width, self._instrs_to_line_end(addr), request.remaining)
        controls, avail = scan_run(self.program, addr, n)
        if avail == 0:
            self._waiting_resolve = True
            return None
        n = min(n, avail)
        terminal_addr = (
            request.terminal_addr if request.terminal_kind is not None else None
        )

        # The window is walked control-to-control: one fragment per
        # straight-line run, ending at each recognised control.
        bundle: List[FetchFragment] = []
        frag_start = addr
        ib = INSTRUCTION_BYTES
        end = addr + n * ib
        done_early = False
        emitted = 0
        append = bundle.append
        ckpt_pre = request.ckpt_pre

        for baddr, lb in controls:
            if terminal_addr is not None and terminal_addr < baddr:
                break  # stale-length terminal before the next control
            run = (baddr - frag_start) // ib + 1
            if baddr == terminal_addr:
                # The predicted stream terminal.  The stored branch-type
                # field only drives RAS management; even if it is stale
                # (kind mismatch), the engine follows its own next-stream
                # prediction — a wrong target resolves as an ordinary
                # misprediction.
                append((frag_start, run, request.pred_next, request.ckpt,
                        request.payload))
                emitted += run
                done_early = True
                break
            if lb.kind is BranchKind.COND:
                # Intermediate branch: implicitly not taken.
                append((frag_start, run, baddr + ib, ckpt_pre, None))
                emitted += run
                frag_start = baddr + ib
                continue
            # Unconditional control inside the (predicted or fallback)
            # stream: decode fixup.
            if frag_start < baddr:
                append((frag_start, run - 1, baddr, None, None))
                emitted += run - 1
            self._decode_fixup(now, bundle, baddr, lb)
            emitted += 1
            done_early = True
            break

        if not done_early:
            if terminal_addr is not None and frag_start <= terminal_addr < end:
                # Predicted stream length is stale: there is no branch
                # at the predicted terminal.  Decode fixes this up —
                # continue sequentially and resync the prediction
                # pipeline.
                self.stats.add("length_misfetches")
                run = (terminal_addr - frag_start) // ib + 1
                append((frag_start, run, terminal_addr + ib, None, None))
                emitted += run
                self._resync(now, terminal_addr + ib)
                done_early = True
            elif frag_start < end:
                run = (end - frag_start) // ib
                append((frag_start, run, end, None, None))
                emitted += run

        if done_early:
            # A decode fixup may already have flushed the queue.
            if self.ftq.head() is request:
                self.ftq.pop()
        elif request.consume(n):
            self.ftq.pop()

        self.fetch_cycles += 1
        self.fetched_instructions += emitted
        return bundle

    def _decode_fixup(
        self, now: int, bundle: List[FetchFragment], cursor: int, lb
    ) -> None:
        kind = lb.kind
        self.stats.add("decode_redirects")
        if kind is BranchKind.CALL:
            self.ras.push(cursor + INSTRUCTION_BYTES)
            target = lb.target_addr
        elif kind is BranchKind.JUMP:
            target = lb.target_addr
        elif kind is BranchKind.RET:
            target = self.ras.pop()
        else:  # IND: sequential fetching cannot guess the target
            bundle.append(
                (cursor, 1, None,
                 (self.ras.checkpoint(), tuple(self.path.spec)), None)
            )
            self.stats.add("indirect_stalls")
            self._waiting_resolve = True
            self.ftq.flush()
            return
        ckpt = (self.ras.checkpoint(), tuple(self.path.spec))
        bundle.append((cursor, 1, target, ckpt, None))
        self._resync(now, target)
        self._stall(now, self.decode_bubble)

    def _resync(self, now: int, addr: int) -> None:
        """Restart the prediction pipeline at ``addr`` (decode fixup).

        The path register keeps its current value: fixups happen during
        sequential fallback, whose requests never pushed path entries.
        """
        self.ftq.flush()
        self.predict_addr = addr

    # ------------------------------------------------------------------
    def redirect(self, now, correct_addr, ckpt, resolved=None) -> None:
        self.ftq.flush()
        self.predict_addr = correct_addr
        if isinstance(ckpt, tuple):
            ras_ckpt, path_snap = ckpt
            self.ras.restore(ras_ckpt)
            self.path.spec = list(path_snap)
        else:
            self.path.recover()
        # A fell-through predicted terminal starts a *partial* stream at
        # the redirect address; partial starts are not part of the path
        # history on either the fetch or the commit side.
        nt_terminal = (
            resolved is not None
            and resolved.kind is BranchKind.COND
            and not resolved.taken
        )
        self._skip_next_path_push = nt_terminal
        self._waiting_resolve = False
        self._busy_until = now + 1
        self.stats.add("redirects")

    # ------------------------------------------------------------------
    def note_commit(
        self, dyn: DynBlock, payload: object, mispredicted: bool
    ) -> None:
        """Reconstruct streams in commit order and train the predictor.

        Not-taken branches are invisible here — the property that gives
        the stream predictor its low table pressure — with one twist: a
        *mispredicted* not-taken branch (a predicted stream terminal
        that fell through) marks the start of a **partial stream** (§1
        of the paper).  The enclosing long stream is still recorded
        under its own start address — with the misprediction flag, so
        the path table learns the exit-path variant — and the partial
        stream is recorded under the redirect address so recovery
        fetches hit the predictor immediately.
        """
        if not dyn.taken:
            if mispredicted:
                self._s_partials.append((dyn.next_addr, self._s_len + dyn.size))
                self._s_mispredicted = True
            self._s_len += dyn.size
            return
        self._s_len += dyn.size
        self._s_mispredicted = self._s_mispredicted or mispredicted

        self._record_run(self._s_start, self._s_len, dyn,
                         self._s_mispredicted, push_history=True)
        for partial_start, offset in self._s_partials:
            self._record_run(partial_start, self._s_len - offset, dyn,
                             mispredicted=False, push_history=False)
            self.stats.add("partial_streams_committed")
        self.stats.add("streams_committed")
        self.stats.add("stream_instructions", self._s_len)
        self._s_start = dyn.next_addr
        self._s_len = 0
        self._s_mispredicted = False
        self._s_partials.clear()

    def _record_run(
        self,
        start: int,
        length: int,
        dyn: DynBlock,
        mispredicted: bool,
        push_history: bool,
    ) -> None:
        """Record one (possibly capped) stream ending at ``dyn``."""
        if length <= 0:
            return
        while length > MAX_STREAM_LENGTH:
            # Too long for one predictor entry: record a capped,
            # sequentially-continuing pseudo-stream.
            record = StreamRecord(
                start, MAX_STREAM_LENGTH, BranchKind.NONE,
                start + MAX_STREAM_LENGTH * INSTRUCTION_BYTES,
            )
            self.predictor.update(self.path.commit_view(), record, False)
            if push_history:
                self.path.commit_push(start)
            start += MAX_STREAM_LENGTH * INSTRUCTION_BYTES
            length -= MAX_STREAM_LENGTH
        record = StreamRecord(start, length, dyn.kind, dyn.next_addr)
        self.predictor.update(self.path.commit_view(), record, mispredicted)
        if push_history:
            self.path.commit_push(start)
