"""Path hashing for cascaded predictors.

The next stream predictor and the next trace predictor index their
second-level (path-correlated) tables with a **DOLC** hash of the recent
fetch-address history, the scheme used by the multiscalar control-flow
speculation work (Jacobson et al.) that the paper cites.

A DOLC specification ``(depth, older_bits, last_bits, current_bits)``
means: take the low ``older_bits`` bits of each of the ``depth - 1``
*older* history entries, the low ``last_bits`` bits of the most recent
history entry, and the low ``current_bits`` bits of the current address;
concatenate them and fold the result by XOR into the desired index width.

The paper's configurations (Table 2):

* streams: DOLC 12-2-4-10
* traces:  DOLC 9-4-7-9
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from repro.common.types import INSTRUCTION_BYTES


def fold_xor(value: int, width_bits: int) -> int:
    """Fold an arbitrarily wide integer into ``width_bits`` bits by XOR.

    Negative inputs are reinterpreted as 64-bit two's complement — a
    Python negative never reaches zero under ``>>``, so masking keeps
    the fold total for any int.
    """
    if width_bits <= 0:
        raise ValueError("width_bits must be positive")
    value &= (1 << 64) - 1
    mask = (1 << width_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= width_bits
    return folded


@dataclass(frozen=True)
class DolcSpec:
    """A DOLC hash specification (see module docstring)."""

    depth: int
    older_bits: int
    last_bits: int
    current_bits: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("DOLC depth must be >= 1")
        for name in ("older_bits", "last_bits", "current_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_bits(self) -> int:
        older = max(self.depth - 1, 0) * self.older_bits
        return older + self.last_bits + self.current_bits


#: Shared DOLC memo dicts keyed by (spec, index_bits).  Both caches
#: memoize pure functions of their keys (no predictor state), so every
#: hasher with the same specification — across predictors, processors
#: and runs in one process — can share one pair and stay warm.
_DOLC_CACHES: dict = {}

#: Shared first-level (address-indexed) fold memos, keyed by index
#: width: addr -> (fold_xor(addr >> 2, bits), (addr >> 2) >> bits).
#: Pure per width, so predictors across processors share one dict;
#: the population spans every image simulated in the process, so
#: callers bound their inserts with :data:`T1_CACHE_LIMIT`.
_T1_CACHES: dict = {}

#: Deterministic size bounds for the shared pure memos (entries).
_FOLD_CACHE_LIMIT = 1 << 20
T1_CACHE_LIMIT = 1 << 20


def shared_t1_cache(index_bits: int) -> dict:
    """The shared address->(index, tag) memo for one index width."""
    cache = _T1_CACHES.get(index_bits)
    if cache is None:
        cache = _T1_CACHES[index_bits] = {}
    return cache


def make_t1_index_tag(index_bits: int):
    """A memoized ``addr -> (index, tag)`` first-level table hasher.

    The returned closure owns the shared per-width memo — both cascaded
    predictors bind one, so the fold logic and the deterministic size
    bound live here exactly once.
    """
    cache = shared_t1_cache(index_bits)
    cache_get = cache.get

    def t1_index_tag(addr: int) -> tuple:
        hit = cache_get(addr)
        if hit is None:
            if len(cache) > T1_CACHE_LIMIT:
                cache.clear()
            word = addr >> 2
            hit = cache[addr] = (
                fold_xor(word, index_bits), word >> index_bits
            )
        return hit

    return t1_index_tag


class DolcHasher:
    """Computes table indices from (history, current-address) pairs.

    Addresses are word-aligned, so the two zero low-order bits are
    stripped before hashing to avoid wasting index entropy.
    """

    def __init__(self, spec: DolcSpec, index_bits: int) -> None:
        if index_bits <= 0:
            raise ValueError("index_bits must be positive")
        self.spec = spec
        self.index_bits = index_bits
        #: ``history[window_cut:]`` is the window the hash reads: the
        #: newest ``depth - 1`` entries (all of a shorter history, none
        #: when the depth is 1).
        self.window_cut = 1 - spec.depth if spec.depth > 1 else sys.maxsize
        caches = _DOLC_CACHES.get((spec, index_bits))
        if caches is None:
            caches = _DOLC_CACHES[(spec, index_bits)] = ({}, {})
        # Memoized per-address folds.  Shared process-wide per spec, so
        # the population spans every image simulated in this process —
        # bounded by a deterministic clear, like the window cache, so a
        # long-lived sweep service cannot grow it without limit.
        self._fold_cache = caches[0]
        # Memoized (current, window tuple) -> (index, tag): loops make
        # the same windows recur constantly, and the commit-side update
        # re-hashes exactly what the fetch side hashed.  Bounded by a
        # deterministic clear so adversarial histories cannot leak.
        # The cascaded predictors probe it inline before calling
        # :meth:`index_tag`.
        self._it_cache = caches[1]

    def _fold_addr(self, addr: int, width_bits: int) -> int:
        key = (addr, width_bits)
        cache = self._fold_cache
        folded = cache.get(key)
        if folded is None:
            if len(cache) > _FOLD_CACHE_LIMIT:
                cache.clear()
            folded = cache[key] = fold_xor(
                addr >> _ADDR_SHIFT, width_bits
            )
        return folded

    def index(self, history: Sequence[int], current: int) -> int:
        """Hash the most recent ``depth - 1`` history addresses + current.

        ``history`` is ordered oldest-first; entries beyond the DOLC depth
        are ignored, and a short history simply contributes fewer bits
        (cold-start behaviour of the real hardware registers).

        Each address contributes a *fold* of its full word value rather
        than its raw low-order bits: block addresses are strongly biased
        towards aligned low bits, and the hardware's DOLC bit selection
        is tuned to pick informative positions — folding is the
        software equivalent of that tuning.
        """
        spec = self.spec
        fold_addr = self._fold_addr
        value = fold_addr(current, spec.current_bits)
        width = spec.current_bits

        wanted = spec.depth - 1
        n = len(history)
        if wanted and n:
            take = wanted if wanted < n else n
            # Most recent history entry contributes `last_bits`.
            value |= fold_addr(history[-1], spec.last_bits) << width
            width += spec.last_bits
            older_bits = spec.older_bits
            if older_bits:
                # history[-2] .. history[-take], newest-to-oldest — the
                # same order the sliced version visited them in.
                for i in range(2, take + 1):
                    value |= fold_addr(history[-i], older_bits) << width
                    width += older_bits
        return fold_xor(value, self.index_bits)

    def index_tag(self, history: Sequence[int], current: int) -> tuple:
        """``(index, tag)`` computed in a single pass over the history.

        Equivalent to ``(self.index(h, c), self.tag(h, c))`` but shares
        the history walk and inlines the per-address fold memoization —
        this pair is computed once per predictor lookup, which makes it
        one of the hottest call sites in the whole simulator.
        """
        spec = self.spec
        wanted = spec.depth - 1
        n = len(history)
        window = tuple(history[self.window_cut:])
        it_cache = self._it_cache
        it_key = (current, window)
        hit = it_cache.get(it_key)
        if hit is not None:
            return hit

        cache = self._fold_cache
        if len(cache) > _FOLD_CACHE_LIMIT:  # deterministic bound
            cache.clear()
        cache_get = cache.get

        current_bits = spec.current_bits
        key = (current, current_bits)
        value = cache_get(key)
        if value is None:
            value = cache[key] = fold_xor(current >> _ADDR_SHIFT, current_bits)
        width = current_bits

        path = 0
        if wanted and n:
            take = wanted if wanted < n else n
            last_bits = spec.last_bits
            last = history[-1]
            key = (last, last_bits)
            folded = cache_get(key)
            if folded is None:
                folded = cache[key] = fold_xor(last >> _ADDR_SHIFT, last_bits)
            value |= folded << width
            width += last_bits
            older_bits = spec.older_bits
            if older_bits:
                for i in range(2, take + 1):
                    addr = history[-i]
                    key = (addr, older_bits)
                    folded = cache_get(key)
                    if folded is None:
                        folded = cache[key] = fold_xor(
                            addr >> _ADDR_SHIFT, older_bits
                        )
                    value |= folded << width
                    width += older_bits
            # Path tag: oldest-to-newest over the same window.
            for i in range(n - take, n):
                path = ((path << 5) ^ (history[i] >> _ADDR_SHIFT)) & 0xFFFFFFFF
        index = fold_xor(value, self.index_bits)
        base = current >> (_ADDR_SHIFT + self.index_bits)
        result = (index, (base << 16) ^ fold_xor(path, 16))
        if len(it_cache) > (1 << 20):  # deterministic bound
            it_cache.clear()
        it_cache[it_key] = result
        return result

    def tag(self, history: Sequence[int], current: int) -> int:
        """A tag that disambiguates different paths mapping to one index.

        Combines the unfolded upper address bits with a secondary fold of
        the path so that two different streams rarely alias.
        """
        base = current >> (_ADDR_SHIFT + self.index_bits)
        path = 0
        wanted = self.spec.depth - 1
        n = len(history)
        if wanted and n:
            start = n - wanted if n > wanted else 0
            for i in range(start, n):
                path = ((path << 5) ^ (history[i] >> _ADDR_SHIFT)) & 0xFFFFFFFF
        return (base << 16) ^ fold_xor(path, 16)


# Word-aligned instruction addresses: strip the constant low bits.
_ADDR_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
