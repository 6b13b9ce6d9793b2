"""The path-based next trace predictor (Jacobson, Rotenberg & Smith).

Cascaded like the stream predictor: a first-level table indexed by the
current fetch address, and a second-level table indexed by a DOLC hash
of the recent *trace id* path (Table 2: 1K-entry 4-way first level,
4K-entry 4-way second level, DOLC 9-4-7-9).  Entries predict the whole
next trace: start address, embedded conditional-branch outcomes, segment
layout, terminating branch kind and successor address, guarded by the
same 2-bit hysteresis replacement counters.

A trace id is (start address, conditional outcome bits); for path
hashing the id is folded into a single address-like key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.hashing import (
    DolcHasher, DolcSpec, make_t1_index_tag, shared_t1_cache,
)
from repro.common.stats import CounterBag
from repro.common.types import BranchKind

#: Trace length cap in instructions (one trace cache line).
MAX_TRACE_LENGTH = 16
#: Maximum conditional branches per trace (outcome bits stored).
MAX_TRACE_BRANCHES = 3


class TraceDescriptor:
    """A complete trace identity + layout.

    ``segments`` are (address, n_instructions) runs; consecutive
    segments are separated by taken branches.  ``call_returns`` lists
    the return addresses pushed by calls inside the trace, in order.

    A plain ``__slots__`` class with the derived values —
    ``outcome_bits``, the path-hashing ``key``, ``interior_taken`` —
    precomputed once at construction instead of recomputed per property
    access.  The fill unit interns one per distinct committed trace.
    Treat instances as immutable; equality compares the full identity
    exactly like the frozen dataclass it replaces (the predictor's
    hysteresis update relies on it).

    ``plan`` is not part of the identity: it caches the fetch plan the
    accelerated trace engine replays when the trace cache delivers this
    trace (see :func:`repro.fetch.trace_cache.fetch_plan`), built for
    the width of the one engine whose fill unit interned the
    descriptor, on its first trace-cache hit.  It stays None on
    descriptors the trace cache never delivers.
    """

    __slots__ = ("start", "outcomes", "segments", "length",
                 "terminal_kind", "next_addr", "call_returns",
                 "outcome_bits", "key", "interior_taken", "plan")

    def __init__(
        self,
        start: int,
        outcomes: Tuple[bool, ...],
        segments: Tuple[Tuple[int, int], ...],
        length: int,
        terminal_kind: BranchKind,  # NONE when the trace ends by length cap
        next_addr: int,
        call_returns: Tuple[int, ...] = (),
    ) -> None:
        if not segments:
            raise ValueError("trace must have at least one segment")
        total = 0
        for _, n in segments:
            total += n
        if length != total:
            raise ValueError("trace length does not match its segments")
        if len(outcomes) > MAX_TRACE_BRANCHES:
            raise ValueError("too many conditional outcomes in trace")
        self.start = start
        self.outcomes = outcomes
        self.segments = segments
        self.length = length
        self.terminal_kind = terminal_kind
        self.next_addr = next_addr
        self.call_returns = call_returns
        bits = 0
        for outcome in outcomes:
            bits = (bits << 1) | (1 if outcome else 0)
        #: Packed conditional outcomes, oldest in the highest bit.
        self.outcome_bits = bits
        #: Address-like key folding identity for path hashing / tags.
        self.key = start ^ (bits << 3) ^ (len(outcomes) << 1)
        #: True when the trace crosses a taken branch (a "red" trace).
        self.interior_taken = len(segments) > 1
        self.plan = None

    def _identity(self) -> tuple:
        return (self.start, self.outcomes, self.segments, self.length,
                self.terminal_kind, self.next_addr, self.call_returns)

    def __eq__(self, other: object) -> bool:
        if self is other:
            # The fill unit interns descriptors, so recurring traces
            # compare by identity on the hysteresis hot path.
            return True
        if other.__class__ is not TraceDescriptor:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceDescriptor(@{self.start:#x} +{self.length} "
                f"outcomes={self.outcomes} -> {self.next_addr:#x})")


@dataclass(frozen=True)
class TracePredictorConfig:
    first_entries: int = 1024
    first_assoc: int = 4
    second_entries: int = 4096
    second_assoc: int = 4
    dolc: DolcSpec = DolcSpec(depth=9, older_bits=4, last_bits=7, current_bits=9)

    @property
    def first_sets(self) -> int:
        return self.first_entries // self.first_assoc

    @property
    def second_sets(self) -> int:
        return self.second_entries // self.second_assoc


class _Entry:
    __slots__ = ("tag", "descriptor", "counter")

    def __init__(self, tag: int, descriptor: TraceDescriptor) -> None:
        self.tag = tag
        self.descriptor = descriptor
        self.counter = 1


class _TraceTable:
    """Set-associative descriptor table with hysteresis replacement."""

    def __init__(self, sets: int, assoc: int) -> None:
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        self.sets = sets
        self.assoc = assoc
        self._sets: List[List[_Entry]] = [[] for _ in range(sets)]

    def update(self, index: int, tag: int, descriptor: TraceDescriptor,
               allow_allocate: bool) -> bool:
        """Hysteresis update; optionally allocate on a tag miss.

        Returns whether the tag was present *before* the update, so the
        commit path gets (presence, update) from one way scan.
        """
        ways = self._sets[index & (self.sets - 1)]
        for i, entry in enumerate(ways):
            if entry.tag == tag:
                if entry.descriptor == descriptor:
                    if entry.counter < 3:
                        entry.counter += 1
                elif entry.counter == 0:
                    entry.descriptor = descriptor
                    entry.counter = 1
                else:
                    entry.counter -= 1
                if i:
                    ways.insert(0, ways.pop(i))
                return True
        if not allow_allocate:
            return False
        if len(ways) < self.assoc:
            ways.insert(0, _Entry(tag, descriptor))
            return False
        # Replace the weakest entry (counter, then LRU) — the hysteresis
        # counter is the replacement metric.
        victim = min(
            range(len(ways)), key=lambda i: (ways[i].counter, -i)
        )
        entry = ways.pop(victim)
        entry.tag = tag
        entry.descriptor = descriptor
        entry.counter = 1
        ways.insert(0, entry)
        return False


class NextTracePredictor:
    """Cascaded next trace predictor over trace-id path history.

    ``predict`` and ``update`` are built like those of
    :class:`~repro.fetch.stream_predictor.NextStreamPredictor`: memos
    probed and ways scanned inline, one positional call per table
    update.
    """

    def __init__(self, config: TracePredictorConfig | None = None) -> None:
        self.config = config or TracePredictorConfig()
        cfg = self.config
        self._t1 = _TraceTable(cfg.first_sets, cfg.first_assoc)
        self._t2 = _TraceTable(cfg.second_sets, cfg.second_assoc)
        self._t1_sets = self._t1._sets
        self._t2_sets = self._t2._sets
        self._t1_mask = cfg.first_sets - 1
        self._t2_mask = cfg.second_sets - 1
        t1_bits = cfg.first_sets.bit_length() - 1
        self._t1_index_tag = make_t1_index_tag(t1_bits)
        self._t1_get = shared_t1_cache(t1_bits).get
        self._hasher = DolcHasher(cfg.dolc, cfg.second_sets.bit_length() - 1)
        self._t2_get = self._hasher._it_cache.get
        self._t2_cut = self._hasher.window_cut
        # Hot-path event counters as plain ints; see the stats property.
        self.lookups = 0
        self.misses = 0
        self.path_hits = 0
        self.address_hits = 0
        self.alias_rejects = 0
        self.updates = 0

    @property
    def stats(self) -> CounterBag:
        """Counters in mergeable CounterBag form (built on demand)."""
        return CounterBag({
            "lookups": self.lookups,
            "misses": self.misses,
            "path_hits": self.path_hits,
            "address_hits": self.address_hits,
            "alias_rejects": self.alias_rejects,
            "updates": self.updates,
        })

    # ------------------------------------------------------------------
    def predict(
        self, history: Sequence[int], fetch_addr: int
    ) -> Optional[TraceDescriptor]:
        """Predict the trace starting at ``fetch_addr``; path hit wins."""
        i1, t1 = (self._t1_get(fetch_addr)
                  or self._t1_index_tag(fetch_addr))
        ways = self._t1_sets[i1 & self._t1_mask]
        for e1 in ways:
            if e1.tag == t1:
                if e1 is not ways[0]:  # a hit moves to MRU
                    ways.remove(e1)
                    ways.insert(0, e1)
                break
        else:
            e1 = None
        i2, t2 = (self._t2_get((fetch_addr, tuple(history[self._t2_cut:])))
                  or self._hasher.index_tag(history, fetch_addr))
        ways = self._t2_sets[i2 & self._t2_mask]
        for entry in ways:
            if entry.tag == t2:
                if entry is not ways[0]:
                    ways.remove(entry)
                    ways.insert(0, entry)
                break
        else:
            entry = None
        self.lookups += 1
        path_hit = entry is not None
        if not path_hit:
            entry = e1
            if entry is None:
                self.misses += 1
                return None
        descriptor = entry.descriptor
        if descriptor.start != fetch_addr:
            # Aliased entry describing a different location: unusable.
            self.alias_rejects += 1
            return None
        if path_hit:
            self.path_hits += 1
        else:
            self.address_hits += 1
        return descriptor

    # ------------------------------------------------------------------
    def update(
        self,
        history: Sequence[int],
        descriptor: TraceDescriptor,
        mispredicted: bool,
    ) -> None:
        """Commit-time update (same allocation/upgrade rules as streams)."""
        start = descriptor.start
        i1, t1 = self._t1_get(start) or self._t1_index_tag(start)
        i2, t2 = (self._t2_get((start, tuple(history[self._t2_cut:])))
                  or self._hasher.index_tag(history, start))
        # One fused scan per table (see NextStreamPredictor.update for
        # the allocation-rule equivalence argument).
        in_t1 = self._t1.update(i1, t1, descriptor, True)
        self._t2.update(i2, t2, descriptor, not in_t1 or mispredicted)
        self.updates += 1
