"""The one entry point for the package's FFTs, and the thread split of
large transforms and pointwise maps.

`fftn` and `ifftn` transform every axis of an array, and `freq` gives the
angular wavenumbers of one axis.  An array of fewer than 2 * SPLIT_POINTS
points, or a process with one CPU, takes numpy's own `fftn`/`ifftn` in one
call.  A larger array is transformed the way numpy's `fftn` does it, one
in-place 1-D pass per axis, last axis first, but each pass is cut into
blocks of rows that run on a thread pool; numpy's pocketfft releases the
GIL, so the blocks run at once.  Every line goes through the same 1-D call
either way, so the output is bit for bit numpy's whatever the number of
workers.  `pointwise` cuts an elementwise map into the same row blocks.

Workers are the CPUs in the process's affinity mask, so `taskset -c 0`
makes every transform serial.  The pool is made, and `concurrent.futures`
imported, at the first split.  The calling thread runs the first block and
allocates every array a split writes: the tasks get views of it and
allocate no array of their own (memory a worker thread allocates stays in
its malloc arena), and never start tasks of their own.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

# An array is cut into blocks of at least this many points.  A Strang step
# on 2 CPUs, serial -> 2 blocks: 128^2 1.3 -> 1.7 ms (slower), 256^2
# 5.9 -> 4.5 ms, 512^2 26.9 -> 15.6 ms, 64^3 24.7 -> 15.3 ms; so splits
# start at 256^2 = 2 * 2^15 points.
SPLIT_POINTS = 1 << 15

_workers = None     # CPUs in the affinity mask, read at the first split test
_pool = None        # made at the first split


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_forget_pool)


def freq(n: int, dx: float) -> np.ndarray:
    """Angular wavenumbers 2 pi m / (n dx) of an n-point axis, FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dx)


def blocks(size: int) -> int:
    """Row blocks an array of `size` points is cut into: one below
    2 * SPLIT_POINTS, else size // SPLIT_POINTS, at most one per worker."""
    global _workers
    nb = size // SPLIT_POINTS
    if nb < 2:
        return 1
    if _workers is None:
        try:
            _workers = len(os.sched_getaffinity(0))
        except AttributeError:      # no affinity mask on this platform
            _workers = os.cpu_count() or 1
    return min(nb, _workers)


def fftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.fftn(a, out=out) over every axis of a."""
    nb = blocks(a.size)
    if nb == 1 or a.ndim == 1:
        return np.fft.fftn(a, out=out)
    return _split_passes(np.fft.fft, a, out, nb)


def ifftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.ifftn(a, out=out) over every axis of a."""
    nb = blocks(a.size)
    if nb == 1 or a.ndim == 1:
        return np.fft.ifftn(a, out=out)
    return _split_passes(np.fft.ifft, a, out, nb)


def pointwise(fn, *args) -> None:
    """Call the elementwise, in-place `fn(*args)` on row blocks of its
    array arguments, which all have the shape of the first; any other
    argument is passed whole to every block."""
    nb = blocks(args[0].size)
    if nb == 1:
        fn(*args)
        return
    _run(fn, [[x[rows] if isinstance(x, np.ndarray) else x for x in args]
              for rows in _rows(args[0].shape[0], nb)])


def _rows(n: int, nb: int) -> list:
    nb = min(nb, n)
    return [slice(n * i // nb, n * (i + 1) // nb) for i in range(nb)]


def _line_pass(fft1, block: np.ndarray, axis: int) -> None:
    fft1(block, axis=axis, out=block)


def _split_passes(fft1, a: np.ndarray, out: np.ndarray | None,
                  nb: int) -> np.ndarray:
    """numpy's n-D transform of a into out as in-place 1-D passes, last
    axis first, each pass cut into row blocks along another axis."""
    if out is None:
        out = a.astype(np.result_type(a.dtype, 1j))
    elif out is not a:
        np.copyto(out, a)
    for axis in reversed(range(a.ndim)):
        along = 1 if axis == 0 else 0
        lead = (slice(None),) * along
        _run(_line_pass, [(fft1, out[lead + (rows,)], axis)
                          for rows in _rows(a.shape[along], nb)])
    return out


def _run(fn, block_args: list) -> None:
    """fn(*args) for every args of block_args: the first here, the rest
    on the pool, each in a copy of the caller's context (numpy's errstate
    lives there); returns when all are done and re-raises a task's error."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(max_workers=_workers - 1,
                                   thread_name_prefix="hnlslab-split")
    futures = [_pool.submit(contextvars.copy_context().run, fn, *args)
               for args in block_args[1:]]
    try:
        fn(*block_args[0])
    finally:
        for future in futures:
            future.exception()          # waits; errors re-raised below
    for future in futures:
        future.result()
