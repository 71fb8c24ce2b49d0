"""Graceful-shutdown plumbing for long training runs.

:class:`ShutdownGuard` converts SIGINT/SIGTERM into a cooperative stop
flag that the run loop checks at episode/segment boundaries -- the run
writes a final checkpoint, seals its manifest with status
``interrupted``, and exits with code 130 instead of dying mid-write.  A
second signal escalates to an immediate :class:`KeyboardInterrupt` for
the impatient.
"""

from __future__ import annotations

import signal
from types import FrameType
from typing import Optional

#: Conventional exit code for an interrupted run (128 + SIGINT).
INTERRUPT_EXIT_CODE = 130


def mask_worker_signals() -> None:
    """Make a child worker immune to SIGINT/SIGTERM.

    Forked workers (the actor processes of the actor/learner runtime,
    the repo's one multi-process trainer) inherit the parent's signal
    disposition -- including any installed :class:`ShutdownGuard`
    handler, whose *second-signal* escalation would raise
    ``KeyboardInterrupt`` mid shared-memory write and race the parent's
    shutdown snapshot.  Workers call this first thing: shutdown is then
    coordinated exclusively by the parent through the command pipe
    (with ``terminate``/``kill`` as the parent's last-resort path).
    Off the main thread this degrades to a no-op, matching
    :class:`ShutdownGuard`.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


class ShutdownGuard:
    """Latches termination signals into a pollable stop flag.

    Usable as a context manager::

        with ShutdownGuard() as guard:
            ...  # check guard.stop_requested at safe points

    The previous handlers are restored on exit, so nesting guards or
    embedding runs inside larger applications stays safe.  Outside a
    main thread (where ``signal.signal`` raises), the guard degrades to
    an inert flag that only :meth:`request_stop` can set.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = tuple(signals)
        self._stop = False
        self._previous: dict = {}
        self._installed = False

    @property
    def stop_requested(self) -> bool:
        """True once a signal has been received (or stop was forced)."""
        return self._stop

    def request_stop(self) -> None:
        """Set the flag programmatically (tests, embedding hosts)."""
        self._stop = True

    def _handle(self, signum: int, _frame: Optional[FrameType]) -> None:
        if self._stop:
            # Second signal: the user really means it.
            raise KeyboardInterrupt(f"second signal {signum}")
        self._stop = True

    def install(self) -> "ShutdownGuard":
        """Install handlers (idempotent; no-op off the main thread)."""
        if self._installed:
            return self
        try:
            for sig in self.signals:
                self._previous[sig] = signal.signal(sig, self._handle)
            self._installed = True
        except ValueError:  # pragma: no cover - non-main thread
            self._previous.clear()
        return self

    def restore(self) -> None:
        """Put the previous handlers back (idempotent)."""
        if not self._installed:
            return
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "ShutdownGuard":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()
