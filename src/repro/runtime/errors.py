"""Typed failures of the supervised task runtime.

These are the engine-agnostic forms of the pool failure modes: a
campaign, fuzz sweep, or compile farm driving a
:class:`repro.runtime.pool.WorkerPool` sees exactly these types.

All of them serialize with :meth:`to_dict` in the same
``{"type", "message", "detail"}`` shape the serving layer puts on the
wire, so journal records and job envelopes can carry the *type*, not
just a message string; a serve client rebuilds them as the same-named
:mod:`repro.serve.errors` types.
"""

from __future__ import annotations

from typing import Any, Dict


def _plain(value: Any) -> Any:
    """JSON-safe rendering of one detail value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


class TypedError(RuntimeError):
    """A failure that travels as ``{"type", "message", "detail"}``.

    The common body of :class:`TaskRuntimeError` and
    :class:`repro.serve.errors.ServeError`, which stay siblings so that
    an ``except`` clause naming one never catches the other.
    """

    def __init__(self, message: str, **detail: Any):
        super().__init__(message)
        self.message = message
        self.detail: Dict[str, Any] = detail

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": type(self).__name__,
            "message": self.message,
            "detail": {k: _plain(v) for k, v in self.detail.items()},
        }


class TaskRuntimeError(TypedError):
    """Base class of every supervised-runtime failure."""


class WorkerCrashError(TaskRuntimeError):
    """A pool worker died (crash, SIGKILL, or a supervisor hang-kill)
    while running the task and the retry budget did not absorb it."""


class PoisonJobError(TaskRuntimeError):
    """A task killed enough consecutive workers to be quarantined.

    The supervised pool retries a task whose worker crashed; a task
    whose *every* attempt kills its worker would otherwise crash-loop
    the pool forever.  After ``poison_threshold`` consecutive worker
    deaths the task is failed with this error and its key quarantined —
    later submissions of the same key fail fast without touching a
    worker.
    """


class ReconciliationError(TaskRuntimeError):
    """End-of-sweep accounting failed: some task index is missing from
    the result set or appears more than once.  This is the invariant the
    whole supervision story exists to uphold — every index accounted for
    exactly once (completed ∪ retried-then-completed ∪ quarantined) —
    so a violation is a runtime bug, not a task failure, and is raised
    loudly instead of being folded into the report."""
