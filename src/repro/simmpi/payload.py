"""Word accounting and copy semantics for message payloads.

The paper's models count communication in *words*. For simulation we
adopt the convention that one word is one scalar element: a NumPy array
of k elements is k words regardless of dtype width (the paper likewise
works in words and leaves the byte width to the machine constants).

Payloads crossing rank boundaries must behave like distributed memory: a
receiver mutating its buffer must never affect the sender's copy
(threads share an address space, real clusters do not — aliasing here
would let buggy algorithms pass). Two implementations provide that
guarantee:

* **deep copy** (``payload_mode="copy"``) — the historical semantics:
  every hop copies the payload, so a tree broadcast of an n-word block
  moves O(n p) bytes through memcpy even though the *model* only charges
  each rank O(n).
* **copy-on-write** (``payload_mode="cow"``, the default) —
  :class:`FrozenPayload` snapshots the payload *once* at the first send
  (arrays become private read-only buffers); relays and fan-out
  receivers all share that single frozen buffer, and receivers get
  read-only views. Mutation is impossible through any delivered view, so
  sharing is safe; a receiver that wants a writable buffer calls
  :func:`materialize`, paying the copy only at first mutation.

Word and message *counts* are identical in both modes — only the number
of physical copies differs.

A point-to-point send calls :func:`freeze_message` once: it returns the
frozen content and its word count, which travel in the message's
:class:`~repro.simmpi.envelope.Envelope`, and the receiver hands the
content out through :func:`deliver`. Both take a fast path for the
common payload, one plain ndarray: ``type(obj) is np.ndarray`` skips
the container walk, and only an array backed by a simulator-frozen
buffer skips the copy. :class:`FrozenPayload` wraps the same pair for
the collectives and for users who freeze once and relay by hand.
"""

from __future__ import annotations

import copy as _copy
import math
from typing import Any

import numpy as np

from repro.exceptions import CommunicatorError

__all__ = [
    "payload_words",
    "copy_payload",
    "message_count",
    "FrozenPayload",
    "freeze_payload",
    "freeze_message",
    "deliver",
    "materialize",
]


class _FrozenBase(np.ndarray):
    """Marker subclass for simulator-owned frozen buffers.

    Provenance matters: an arbitrary read-only array a *user* hands us
    could be flipped writable again through its owning base, so only
    buffers the simulator itself froze (instances of this subclass,
    reachable through a view's ``base`` chain) may be forwarded without
    a copy.
    """

    __slots__ = ()


def _is_frozen_view(arr: np.ndarray) -> bool:
    """True when ``arr`` is backed by a simulator-owned frozen buffer
    and therefore can never be written through any live reference.

    The base chain is walked first: a plain array owning its memory
    (the usual sender's buffer) answers False without reading flags."""
    node: Any = arr
    while isinstance(node, np.ndarray):
        if isinstance(node, _FrozenBase):
            return not node.flags.writeable and not arr.flags.writeable
        node = node.base
    return False


def _frozen_copy(arr: np.ndarray) -> _FrozenBase:
    """A private read-only copy of ``arr`` in a simulator-owned buffer.

    The _FrozenBase must OWN its memory (not wrap a view of a plain
    array): NumPy collapses a view's ``base`` straight to the memory
    owner, so a marker that is itself a view would vanish from every
    delivered view's base chain and break adoption."""
    buf = _FrozenBase(arr.shape, arr.dtype)
    buf[...] = arr
    buf.setflags(write=False)
    return buf


def _freeze(obj: Any) -> Any:
    """Immutable snapshot of a payload graph (arrays -> frozen buffers)."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if isinstance(obj, np.ndarray):
        if _is_frozen_view(obj):
            return obj  # already frozen by us: forward without copying
        return _frozen_copy(obj)
    if isinstance(obj, np.generic):
        return obj  # immutable scalar
    if isinstance(obj, tuple):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, list):
        return [_freeze(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _freeze(v) for k, v in obj.items()}
    if getattr(obj, "__payload_words__", None) is not None:
        # Opaque user payloads keep per-hop deep-copy semantics: we
        # cannot prove them immutable, so sharing would be unsafe.
        return _copy.deepcopy(obj)
    raise CommunicatorError(
        f"cannot freeze payload type {type(obj).__name__}; "
        "send NumPy arrays, scalars, or containers thereof"
    )


def freeze_message(obj: Any) -> tuple[Any, int]:
    """``(content, words)`` of a copy-on-write message: the frozen
    snapshot of ``obj`` and its model word count.

    A plain ndarray is copied once into a frozen buffer, or forwarded
    as is when a simulator-frozen buffer already backs it; a
    :class:`FrozenPayload` gives up its content and cached count; any
    other payload is walked by :func:`_freeze`."""
    kind = type(obj)
    if kind is np.ndarray:
        # An array owning its memory (no base) cannot be a frozen view.
        if obj.base is not None and _is_frozen_view(obj):
            return obj, obj.size
        return _frozen_copy(obj), obj.size
    if kind is FrozenPayload:
        return obj._content, obj._words
    content = _freeze(obj)
    return content, payload_words(content)


def deliver(obj: Any) -> Any:
    """What a receiver gets from frozen content: read-only array views
    (zero copy), fresh containers (receivers own their own list/dict
    structure), pass-through scalars. A frozen buffer, the common
    content, is the first check."""
    if type(obj) is _FrozenBase:
        return obj.view(np.ndarray)  # read-only: base is frozen
    if isinstance(obj, np.ndarray):
        return obj  # an adopted view, already read-only
    if isinstance(obj, tuple):
        return tuple(deliver(x) for x in obj)
    if isinstance(obj, list):
        return [deliver(x) for x in obj]
    if isinstance(obj, dict):
        return {k: deliver(v) for k, v in obj.items()}
    if getattr(obj, "__payload_words__", None) is not None:
        return _copy.deepcopy(obj)  # opaque payloads stay per-receiver copies
    return obj


class FrozenPayload:
    """Copy-on-write snapshot of a message payload.

    Created once at the send boundary (``freeze``), carried through
    mailboxes, and shared — unchanged — by every relay hop and fan-out
    receiver. ``view()`` delivers the content as read-only (zero copy);
    ``materialize()`` produces a private writable copy. The word count
    is computed once at freeze time and cached, so relays do not re-walk
    container payloads.
    """

    __slots__ = ("_content", "_words")

    def __init__(self, content: Any, words: int):
        self._content = content
        self._words = words

    @classmethod
    def freeze(cls, obj: Any) -> "FrozenPayload":
        """Snapshot ``obj`` (no-op when it is already a FrozenPayload or
        a view of a simulator-owned frozen buffer)."""
        if type(obj) is FrozenPayload:
            return obj
        return cls(*freeze_message(obj))

    @property
    def words(self) -> int:
        """Model words of the content (cached at freeze time)."""
        return self._words

    def __payload_words__(self) -> int:
        return self._words

    def view(self) -> Any:
        """The content with arrays exposed as read-only views (no copy)."""
        return deliver(self._content)

    def materialize(self) -> Any:
        """A private, fully writable copy of the content."""
        return materialize(self.view())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrozenPayload(words={self._words})"


def freeze_payload(obj: Any) -> FrozenPayload:
    """Module-level alias for :meth:`FrozenPayload.freeze`."""
    return FrozenPayload.freeze(obj)


def materialize(obj: Any) -> Any:
    """A writable version of ``obj``: read-only arrays (e.g. buffers
    delivered by copy-on-write receives) are copied, writable data is
    returned unchanged — the copy happens only at first mutation.
    """
    if type(obj) is FrozenPayload:
        return obj.materialize()
    if isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            return obj
        return np.array(obj, copy=True, order="C")
    if isinstance(obj, tuple):
        return tuple(materialize(x) for x in obj)
    if isinstance(obj, list):
        return [materialize(x) for x in obj]
    if isinstance(obj, dict):
        return {k: materialize(v) for k, v in obj.items()}
    return obj


def payload_words(obj: Any) -> int:
    """Number of model words in a payload.

    * ``None`` — 0 words (pure synchronization message).
    * NumPy array — one word per element.
    * Python / NumPy scalar (int, float, complex, bool) — 1 word.
    * str / bytes — one word per 8 characters (envelope metadata).
    * tuple / list — sum over elements.
    * dict — sum over values (keys are treated as envelope metadata).
    * objects exposing ``__payload_words__()`` — whatever they report
      (:class:`FrozenPayload` reports its cached count this way).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 1
    if isinstance(obj, (str, bytes)):
        # 8 characters per model word, minimum 1.
        return max(1, math.ceil(len(obj) / 8))
    if isinstance(obj, (tuple, list)):
        return sum(payload_words(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_words(v) for v in obj.values())
    hook = getattr(obj, "__payload_words__", None)
    if hook is not None:
        return int(hook())
    raise CommunicatorError(
        f"cannot count words of payload type {type(obj).__name__}; "
        "send NumPy arrays, scalars, or containers thereof"
    )


def copy_payload(obj: Any) -> Any:
    """Deep copy a payload, preserving NumPy arrays as contiguous copies.

    Accepts exactly the types :func:`payload_words` can count and raises
    :class:`~repro.exceptions.CommunicatorError` on anything else — an
    uncountable payload must be rejected at the copy boundary too, not
    silently deep-copied.
    """
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if type(obj) is FrozenPayload:
        return obj.materialize()
    if isinstance(obj, np.ndarray):
        # Order "C": messages travel as contiguous buffers.
        return np.array(obj, copy=True, order="C")
    if isinstance(obj, np.generic):
        return obj  # immutable scalar
    if isinstance(obj, tuple):
        return tuple(copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: copy_payload(v) for k, v in obj.items()}
    if getattr(obj, "__payload_words__", None) is not None:
        return _copy.deepcopy(obj)
    raise CommunicatorError(
        f"cannot copy payload type {type(obj).__name__}; "
        "send NumPy arrays, scalars, or containers thereof"
    )


def message_count(words: int, max_message_words: float) -> int:
    """Messages needed to move ``words`` words: ceil(words / m), min 1.

    A zero-word payload (synchronization) still costs one message — the
    paper folds synchronization into the message count.
    """
    if words <= 0:
        return 1
    if math.isinf(max_message_words):
        return 1
    return int(math.ceil(words / float(max_message_words)))
