"""The FFT entry point: split transforms and Strang runs equal the serial
ones bit for bit, and nothing threads until a split is asked for."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hnlslab import spectral
from hnlslab.evolution import (EvolutionProblem, RunConfig,
                               harmonic_saddle_potential, run)
from hnlslab.fields import Grid, random_smooth_field

SHAPES = [(32,), (16, 16), (16, 32), (32, 16), (16, 16, 16), (16, 32, 16)]


@pytest.fixture
def split(monkeypatch):
    """split(nb, size) makes arrays of `size` points run as nb row blocks;
    split.calls lists the block count of every split made after it."""
    calls = []
    original = spectral._run

    def counted(fn, block_args):
        calls.append(len(block_args))
        original(fn, block_args)

    def set_blocks(nb, size):
        monkeypatch.setattr(spectral, "SPLIT_POINTS", size // nb)
        monkeypatch.setattr(spectral, "_workers", nb)
        assert spectral.blocks(size) == nb

    monkeypatch.setattr(spectral, "_run", counted)
    set_blocks.calls = calls
    return set_blocks


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("nb", [2, 3])
def test_split_transforms_equal_numpy_bit_for_bit(shape, nb, split, rng):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    split(nb, a.size)
    for ours, numpys in ((spectral.fftn, np.fft.fftn),
                         (spectral.ifftn, np.fft.ifftn)):
        ref = numpys(a)
        kept = a.copy()
        assert np.array_equal(ours(a), ref)
        assert np.array_equal(a, kept)
        b = a.copy()
        assert ours(b, out=b) is b
        assert np.array_equal(b, ref)
        c = np.empty_like(a)
        assert ours(a, out=c) is c
        assert np.array_equal(c, ref)
        real = ours(a.real)
        assert real.dtype == np.complex128
        assert np.array_equal(real, numpys(a.real))
    # a 1-D transform is one call; an n-D one is d passes of nb blocks
    d = len(shape)
    assert split.calls == ([] if d == 1 else [nb] * (4 * 2 * d))


def _run(shape, sigma):
    d = len(shape)
    g = Grid(shape, (20.0,) * d, (1.0,) + (-1.0,) * (d - 1))
    f = random_smooth_field(g, np.random.default_rng(5), amplitude=0.9)
    problem = EvolutionProblem(g, lam=1.0, sigma=sigma,
                               potential=harmonic_saddle_potential(g, k=0.3))
    state, series = run(f, problem,
                        RunConfig(t_end=0.0213, dt0=4e-3, sample_stride=2))
    return state, np.array([[s.t, s.mass, s.energy, s.linf, s.virial,
                             s.virial_rate, *s.momentum, *s.com]
                            for s in series.samples])


@pytest.mark.parametrize("shape", [(32,), (16, 32), (32, 16, 16)])
@pytest.mark.parametrize("sigma", [0.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("nb", [2, 3])
def test_split_run_equals_serial_run_bit_for_bit(shape, sigma, nb, split):
    serial, serial_rows = _run(shape, sigma)
    assert split.calls == []
    split(nb, int(np.prod(shape)))
    state, rows = _run(shape, sigma)
    assert split.calls and set(split.calls) == {nb}
    assert state.step_count == serial.step_count == 6
    assert state.t == serial.t
    assert np.array_equal(state.field.values, serial.field.values)
    assert np.array_equal(rows, serial_rows)


def test_a_failing_block_raises_once_every_block_ran(split):
    split(3, 48)
    seen = []

    def fn(x):
        seen.append(float(x[0]))
        if x[0] == 16.0:
            raise ValueError("block two")

    with pytest.raises(ValueError, match="block two"):
        spectral.pointwise(fn, np.arange(48.0))
    assert sorted(seen) == [0.0, 16.0, 32.0]


def test_blocks_run_under_the_callers_errstate(split):
    # only the second block, which a pool thread runs, overflows
    split(2, 64)
    a = np.ones(64)
    a[32:] = 1e300
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            spectral.pointwise(lambda x: np.multiply(x, x, out=x), a)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity mask on this platform")
def test_workers_are_the_affinity_mask_not_omp_threads(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setattr(spectral, "_workers", None)
    assert spectral.blocks(spectral.SPLIT_POINTS) == 1
    assert spectral.blocks(1 << 40) == len(os.sched_getaffinity(0))


def test_import_and_small_runs_start_no_threads():
    # a 64^2 run stays on one block: no pool, no concurrent.futures, and
    # `import hnlslab` loads no scipy either
    import hnlslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, hnlslab\n"
        "from hnlslab import spectral\n"
        "g = hnlslab.Grid((64, 64), (20.0, 20.0), (1.0, -1.0))\n"
        "hnlslab.run(hnlslab.gaussian_field(g),\n"
        "            hnlslab.EvolutionProblem(g, lam=1.0, sigma=2.0),\n"
        "            hnlslab.RunConfig(t_end=0.01))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'concurrent')),\n"
        "      spectral._pool)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[] None"


def test_more_blocks_than_cores_under_fast_thread_switches(monkeypatch, rng):
    # four blocks on a fresh pool of three threads, switching every 10 us:
    # every transform still equals numpy's
    monkeypatch.setattr(spectral, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for shape in [(16, 32), (32, 16, 8), (64, 16)]:
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            monkeypatch.setattr(spectral, "SPLIT_POINTS", a.size // 4)
            monkeypatch.setattr(spectral, "_workers", 4)
            ref = (np.fft.fftn(a), np.fft.ifftn(a))
            for _ in range(50):
                assert np.array_equal(spectral.fftn(a), ref[0])
                assert np.array_equal(spectral.ifftn(a), ref[1])
    finally:
        sys.setswitchinterval(interval)
        if spectral._pool is not None:
            spectral._pool.shutdown(wait=True)
    assert spectral._pool._max_workers == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_on_a_pool_of_its_own():
    import hnlslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import os, signal, numpy as np\n"
        "from hnlslab import spectral\n"
        "spectral.SPLIT_POINTS, spectral._workers = 64, 2\n"
        "a = np.arange(256.0).reshape(16, 16) + 0j\n"
        "spectral.fftn(a)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)   # a child left waiting on no thread dies\n"
        "    ok = np.array_equal(spectral.fftn(a), np.fft.fftn(a))\n"
        "    os._exit(0 if ok else 3)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "0"
