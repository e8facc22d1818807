"""Reference timings of the hot kernels, for bench/README.md.

    python3 bench/layers.py

Median of repeated calls, one thread, at 128^2, 256^2, 512^2 and 64^3:
the FFT pair (fftn + ifftn), one `step_strang`, one `observables.sample`
and the nonlinear phase exp(i theta).  These are figures for the README,
not benchmark metrics.
"""

import os
import statistics
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from hnlslab.evolution import (EvolutionProblem, StepperState,  # noqa: E402
                               step_strang)
from hnlslab.fields import Grid, gaussian_field  # noqa: E402
from hnlslab.observables import sample  # noqa: E402


def _ms(fn, budget_s=1.0):
    fn()
    times = []
    start = perf_counter()
    while perf_counter() - start < budget_s or len(times) < 5:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    print("| size | FFT pair | step_strang | sample() | exp(i theta) |")
    print("|---|---|---|---|---|")
    for n in ((128, 128), (256, 256), (512, 512), (64, 64, 64)):
        d = len(n)
        grid = Grid(n, (40.0,) * d, (1.0,) + (-1.0,) * (d - 1))
        u = gaussian_field(grid, 0.7, 3.0, boost=(0.5,) * d)
        problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
        state = StepperState(field=u, dt=1e-3)
        theta = np.abs(u.values) ** 2
        row = [_ms(lambda: np.fft.ifftn(np.fft.fftn(u.values))),
               _ms(lambda: step_strang(state, problem)),
               _ms(lambda: sample(u, 1.0, 2.0)),
               _ms(lambda: np.exp(1j * 1e-3 * theta))]
        label = "x".join(map(str, n))
        print(f"| {label} | " + " | ".join(f"{v:.2f} ms" for v in row)
              + " |")


if __name__ == "__main__":
    main()
