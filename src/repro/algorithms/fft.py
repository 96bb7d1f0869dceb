"""Fast Fourier Transform — serial radix-2 reference and the parallel
transpose (Bailey four-step) algorithm.

Section IV's point about the FFT is negative: *there is no perfect
strong scaling range*, because however the unavoidable all-to-all is
implemented, either the message count (naive: S = p) or the word count
(tree/Bruck: W = n log p / p) fails to scale, and extra memory buys
nothing. This module makes that measurable:

* :func:`fft_serial` — iterative radix-2 Cooley-Tukey with exact flop
  metering (5 n log2 n for the standard operation count). It is the
  one-row case of :func:`fft_rows`, which transforms every row of a
  (rows, n) array with one numpy op per butterfly stage.
* :func:`fft_parallel` — the transpose algorithm on p ranks: local FFTs
  over the second factor, twiddle scaling, one global transpose
  (all-to-all), local FFTs over the first factor. The all-to-all is
  selectable: ``"naive"`` (cyclic pairwise, p-1 messages of n/p^2 words)
  or ``"bruck"`` (log2 p messages of n/(2p) words) — the exact trade
  the paper's two FFT cost rows describe.

Decomposition (n = n1 * n2, indices j = j1 + n1 j2, k = k2 + n2 k1):

    X[k2 + n2 k1] = sum_j1 w_n^(j1 k2) w_n1^(j1 k1)
                    [ sum_j2 w_n2^(j2 k2) x[j1 + n1 j2] ]

Rank r owns the j1 block [r n1/p, (r+1) n1/p): step 1 computes the inner
length-n2 FFTs locally, step 2 applies the twiddles, step 3 transposes
so rank r owns the k2 block, step 4 computes the outer length-n1 FFTs.
The output lands k2-major: rank r holds X[k2 + n2 k1] for its k2 block,
all k1 — :func:`fft_output_index` maps (rank, local slot) to the global
frequency index for reassembly.

Steps 1 and 4 transform all of a rank's rows at once. The bits are
those of one :func:`fft_serial` call per row: every butterfly operation
is elementwise, so each output element is computed from the same
operands by the same operation whether a stage spans one row or all of
them. The ``flop_counter`` gets the same calls too, one
``10 * (n // 2)`` per row and stage.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.exceptions import ParameterError
from repro.simmpi.comm import Comm

__all__ = [
    "fft_serial",
    "fft_rows",
    "fft_parallel",
    "fft_flop_count",
    "assemble_fft_output",
    "fft_layout",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@functools.lru_cache(maxsize=16)
def _fft_plan(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The bit-reversal permutation and per-stage twiddles of a
    length-``n`` radix-2 FFT, built once per length (read-only, so the
    cached tables can be shared by every call and every rank)."""
    stages = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=int)
    for _ in range(stages):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    twiddles = []
    half = 1
    while half < n:
        w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        w.setflags(write=False)
        twiddles.append(w)
        half *= 2
    return rev, tuple(twiddles)


def fft_serial(x: np.ndarray, flop_counter=None) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT (n a power of two).

    Flop accounting uses the standard radix-2 count: each of the
    (n/2) log2 n butterflies costs one complex multiply (6 real flops)
    and two complex adds (4 real flops) — 5 n log2 n total. The
    bit-reversal permutation and twiddle factors come from a per-length
    cache (:func:`_fft_plan`); the arithmetic, its order and the
    ``flop_counter`` calls are those of a from-scratch build.
    """
    x = np.asarray(x, dtype=complex)
    return fft_rows(x.reshape(1, x.size), flop_counter)[0]


def fft_rows(x: np.ndarray, flop_counter=None) -> np.ndarray:
    """:func:`fft_serial` of each row of a (rows, n) array, all rows in
    one numpy op per butterfly stage; returns a fresh (rows, n) array.

    Row i of the result has the bits of ``fft_serial(x[i])``, and
    ``flop_counter`` gets the same calls as those rows' ``fft_serial``
    calls: ``10 * (n // 2)`` once per row and stage.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ParameterError(f"fft_rows needs a (rows, n) array, got shape {x.shape}")
    rows, n = x.shape
    if not _is_pow2(n):
        raise ParameterError(f"radix-2 FFT needs a power-of-two length, got {n}")
    if n == 1:
        return x.copy()

    rev, twiddles = _fft_plan(n)
    y = x[:, rev]  # fancy indexing: already a fresh array

    # Butterfly stages.
    half = 1
    for w in twiddles:
        y = y.reshape(rows, -1, 2 * half)
        lo = y[..., :half]
        hi = y[..., half:] * w  # 6 flops per element
        y[..., half:] = lo - hi  # 2 flops per element
        y[..., :half] = lo + hi  # 2 flops per element
        half *= 2
    if flop_counter is not None:
        for _ in range(rows * len(twiddles)):
            flop_counter(10.0 * (n // 2))
    return y.reshape(rows, n)


def fft_flop_count(n: int) -> float:
    """5 n log2 n — flops of :func:`fft_serial`."""
    if not _is_pow2(n):
        raise ParameterError(f"radix-2 FFT needs a power-of-two length, got {n}")
    return 5.0 * n * math.log2(n) if n > 1 else 0.0


def fft_parallel(
    comm: Comm,
    x: np.ndarray,
    all_to_all: str = "bruck",
) -> np.ndarray:
    """Distributed FFT of a global signal; returns this rank's output block.

    Parameters
    ----------
    comm:
        Communicator; p must be a power of two.
    x:
        Global input of power-of-two length n with p^2 | n. Rank r
        slices its own j1 block (free initial layout); the transpose is
        metered.
    all_to_all:
        "naive" (p-1 messages) or "bruck" (log2 p messages, each word
        traveling up to log2 p hops).

    Returns
    -------
    Rank r's k2-block of the spectrum: an (n2/p, n1) array whose
    [k2_local, k1] entry is X[k2 + n2 k1]. Use
    :func:`assemble_fft_output` to reconstruct the full spectrum.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    p = comm.size
    n1, n2 = fft_layout(p, n, all_to_all)

    r = comm.rank
    rows = n1 // p  # my j1 values: r*rows .. (r+1)*rows - 1
    j1_lo = r * rows
    # A[j1_local, j2] = x[j1 + n1 j2]
    a = x.reshape(n2, n1).T[j1_lo : j1_lo + rows].copy()
    comm.allocate(2 * a.size)  # complex words: count re+im as 2 words/elt

    # Step 1: length-n2 FFTs along j2 for each of my j1.
    y = fft_rows(a, comm.add_flops)

    # Step 2: twiddles w_n^(j1 k2).
    j1_vals = np.arange(j1_lo, j1_lo + rows)
    k2_vals = np.arange(n2)
    y *= np.exp(-2j * np.pi * np.outer(j1_vals, k2_vals) / n)
    comm.add_flops(6.0 * y.size)

    # Step 3: transpose — rank s gets my rows restricted to its k2 block.
    cols = n2 // p
    blocks = [np.ascontiguousarray(y[:, s * cols : (s + 1) * cols]) for s in range(p)]
    if all_to_all == "naive":
        got = comm.alltoall(blocks)
    else:
        got = comm.alltoall_bruck(blocks)
    # z[k2_local, j1] over all j1: stack sender blocks along j1.
    z = np.concatenate([g.T for g in got], axis=1)  # (cols, n1)

    # Step 4: length-n1 FFTs along j1 for each of my k2.
    out = fft_rows(z, comm.add_flops)
    comm.release()
    return out


def assemble_fft_output(results: list[np.ndarray], n: int) -> np.ndarray:
    """Reassemble the global spectrum from per-rank blocks.

    ``results[r][k2_local, k1]`` is X[k2 + n2 k1] with
    k2 = r * (n2/p) + k2_local.
    """
    p = len(results)
    cols, n1 = results[0].shape
    n2 = cols * p
    if n1 * n2 != n:
        raise ParameterError(f"blocks do not assemble to length {n}")
    spectrum = np.empty(n, dtype=complex)
    for r, block in enumerate(results):
        for k2_local in range(cols):
            k2 = r * cols + k2_local
            spectrum[k2 + n2 * np.arange(n1)] = block[k2_local]
    return spectrum


def fft_layout(p: int, n: int, all_to_all: str = "bruck") -> tuple[int, int]:
    """Check p and n powers of two with p^2 <= n and the transpose
    name; return the balanced split n = n1 * n2 with p | n1, p | n2."""
    if all_to_all not in ("naive", "bruck"):
        raise ParameterError(f"all_to_all must be 'naive' or 'bruck', got {all_to_all!r}")
    if not _is_pow2(n):
        raise ParameterError(f"need a power-of-two signal length, got {n}")
    if not _is_pow2(p):
        raise ParameterError(f"need a power-of-two rank count, got {p}")
    return _split_factors(n, p)


def _split_factors(n: int, p: int) -> tuple[int, int]:
    """Balanced n = n1 * n2 with p | n1 and p | n2."""
    log_n = n.bit_length() - 1
    log_p = p.bit_length() - 1
    log_n1 = log_n // 2
    log_n1 = max(log_n1, log_p)
    log_n2 = log_n - log_n1
    if log_n2 < log_p:
        raise ParameterError(
            f"signal length {n} too short for {p} ranks (need p^2 <= n)"
        )
    return 1 << log_n1, 1 << log_n2
