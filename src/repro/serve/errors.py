"""Typed errors of the serving subsystem.

Every failure mode a caller of :mod:`repro.serve` can hit is a distinct
exception type, mirroring the compiler's :mod:`repro.core.errors`
hierarchy: the batch driver captures per-job :class:`CompileError`\\ s
without dying, the server rejects with :class:`ServerBusy` under
backpressure instead of queuing unboundedly, and the client surfaces
exhausted retries as :class:`ServerUnavailable` with the attempt log.

All of them serialize with :meth:`to_dict` (and rebuild with
:func:`error_from_dict`) so the wire protocol and job records carry the
*type*, not just a message string.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.runtime.errors import TypedError


class ServeError(TypedError):
    """Base class of every serving-layer failure."""


class ServerBusy(ServeError):
    """The server's bounded request queue is full (backpressure).

    Deliberately *not* retried by the server itself: the client owns the
    retry policy (exponential backoff + jitter) so a saturated server
    sheds load instead of accumulating it.
    """


class RequestTimeout(ServeError):
    """A request exceeded its per-request compile deadline."""


class RequestCancelled(ServeError):
    """The client disconnected (or the server drained) mid-request."""


class ProtocolError(ServeError):
    """A malformed frame on the JSONL wire protocol."""


class ServerUnavailable(ServeError):
    """The client exhausted its retry budget without a served response."""


class RemoteCompileError(ServeError):
    """A compile request failed on the server with a typed
    :class:`repro.core.errors.CompileError`; ``detail`` carries its
    serialized form (pass name, scheme, kernel snapshot)."""


class WorkerCrashError(ServeError):
    """A pool worker died (crash, SIGKILL, or a supervisor hang-kill)
    while running the job and the retry budget did not absorb it.

    The client-side form of :class:`repro.runtime.errors.WorkerCrashError`,
    which the server puts on the wire by its ``to_dict()``."""


class PoisonJobError(ServeError):
    """A job killed enough consecutive workers to be quarantined.

    The supervised pool retries a job whose worker crashed; a job whose
    *every* attempt kills its worker would otherwise crash-loop the pool
    forever.  After ``poison_threshold`` consecutive worker deaths the
    job is failed with this error and its key is quarantined — later
    submissions of the same key fail fast without touching a worker.
    The client-side form of :class:`repro.runtime.errors.PoisonJobError`.
    """


class CircuitOpen(ServeError):
    """The client's circuit breaker is open: recent attempts failed at
    the transport layer, so the client fails fast instead of hammering a
    dead server.  ``detail`` carries the breaker state and when the next
    probe is allowed."""


_ERROR_TYPES = {}


def _register(cls) -> None:
    _ERROR_TYPES[cls.__name__] = cls


for _cls in (
    ServeError,
    ServerBusy,
    RequestTimeout,
    RequestCancelled,
    ProtocolError,
    ServerUnavailable,
    RemoteCompileError,
    WorkerCrashError,
    PoisonJobError,
    CircuitOpen,
):
    _register(_cls)


def error_from_dict(payload: Optional[Dict[str, Any]]) -> ServeError:
    """Rebuild a typed serve error from its wire form (unknown types
    degrade to the :class:`ServeError` base, never raise)."""
    if not isinstance(payload, dict):
        return ServeError("malformed error payload")
    cls = _ERROR_TYPES.get(str(payload.get("type")), ServeError)
    detail = payload.get("detail")
    err = cls(str(payload.get("message", "unknown error")))
    if isinstance(detail, dict):
        err.detail = detail
    return err
