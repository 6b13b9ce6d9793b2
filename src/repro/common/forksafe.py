"""Locks that a forked child gets back unlocked.

fork() copies a lock that another thread holds at that instant as
held, and no thread in the child will ever release it.  The serve
daemon forks pool workers while its handler threads record events,
update metrics and warn, so without this a worker's first acquire of
one of those locks can block forever.  Every lock made by
:func:`fork_safe_lock` is re-initialised, unlocked, in a forked child
(the hook CPython's own ``threading`` and ``logging`` locks use).
"""

from __future__ import annotations

import os
import threading
import weakref

__all__ = ["fork_safe_lock"]

_LOCKS: "weakref.WeakSet" = weakref.WeakSet()


def fork_safe_lock() -> threading.Lock:
    """A new lock that a forked child gets back unlocked."""
    lock = threading.Lock()
    _LOCKS.add(lock)
    return lock


def _reinit_after_fork() -> None:
    for lock in list(_LOCKS):
        lock._at_fork_reinit()


os.register_at_fork(after_in_child=_reinit_after_fork)
