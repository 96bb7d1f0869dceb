"""Message envelope: payload plus virtual-time metadata.

When a run is given machine parameters (see
:func:`repro.simmpi.engine.run_spmd`'s ``machine`` argument), every rank
carries a virtual clock advanced by the Eq. (1) costs of its own
operations, and messages carry their departure timestamp so receivers
can honor the dependency (a message cannot be consumed before it was
sent). The resulting per-rank clocks give a *critical-path* runtime
estimate — sharper than the per-rank-sum bound of
:meth:`~repro.simmpi.trace.TraceReport.estimate_time` for algorithms
with serial dependency chains (LU's panel factorization, pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Envelope"]


@dataclass(slots=True)
class Envelope:
    """What actually sits in a mailbox: the payload, its send-completion
    time (None when the run has no virtual clock or for setup traffic)
    and its model word count.

    ``payload`` is what the receiver unwraps: frozen content in a
    copy-on-write world (see :func:`~repro.simmpi.payload.deliver`), the
    sender's deep copy otherwise. ``words`` is counted once, at the
    send, so the receiver meters without walking the payload again. It
    is a required keyword: every construction site states what the
    receiver will meter (0 for unmetered setup traffic).

    Traced runs additionally stamp each message with the identity of the
    send event that produced it (``trace_ref``), so the receiver's recv
    event can point back at the exact sender-side record — the cross-rank
    edges :class:`~repro.analysis.timeline.CriticalPath` replays.

    Not frozen: a frozen dataclass pays ``object.__setattr__`` per field
    on every message. Nothing writes an envelope after its send builds
    it; a delayed copy is a new envelope."""

    payload: Any
    departure: float | None = None
    trace_ref: tuple[int, int] | None = None  # (sender world rank, event seq)
    words: int = field(kw_only=True)
