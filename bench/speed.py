"""Machine-speed calibration for the benchmark's timings.

The reference machine shares its cores with other machines' work, which
slows the benchmark by up to 40% for stretches of seconds to minutes, so raw
medians of 10-second runs spread by 16-35% (quartile distance over median)
from run to run.  A fixed kernel timed next to each operation slows down with
it.  The benchmark therefore reports operation times rescaled to the speed at
which the kernel takes ``REFERENCE_S``: ``t * REFERENCE_S / c``, where ``c``
is the kernel's mean time just before and just after the operation.  The raw
times are printed alongside.

The kernel mixes what htefusion spends its time on: interpreted Python,
small Gram solves, elementwise passes and a row-wise ``np.unique`` over
5000-row arrays, as in a Monte Carlo replicate, and spline-like columns,
column copies and a Gram product over a 30000 x 24 array, as in a large fit.
Both halves are needed: with the small-array half alone, fits were rescaled
no better than not at all.  The kernel does not touch htefusion, so no change
to the package can move it.
"""

from time import perf_counter

# Median kernel time on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6, OpenBLAS pinned to one thread).
REFERENCE_S = 0.16


class Calibrator:
    """The fixed kernel, with its arrays allocated once.

    Timing it allocates nothing large, so it adds a constant to the process's
    peak memory instead of setting the peak itself.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((5000, 12))
        self.target = rng.standard_normal(5000)
        self.large = rng.standard_normal((30000, 24))  # 5.8 MB
        self.work = np.empty_like(self.large)
        self.stacked = np.empty_like(self.large)

    def __call__(self, repeats: int = 1) -> float:
        """Mean seconds the kernel takes now, over ``repeats`` runs."""
        np, work = self.np, self.work
        start = perf_counter()
        for _ in range(repeats):
            acc = 0.0
            for i in range(15000):
                acc += i * 0.5
            for _ in range(15):
                gram = self.small.T @ self.small
                np.linalg.solve(gram + np.eye(12), self.small.T @ self.target)
                np.unique(np.stack([self.target > 0, self.target > 1], axis=1), axis=0)
                np.clip(self.target, -1.0, 1.0)
            for _ in range(2):
                np.subtract(self.large, 0.5, out=work)
                np.clip(work, 0.0, None, out=work)
                np.power(work, 3, out=work)
                for j in range(work.shape[1]):
                    self.stacked[:, j] = work[:, j]
                self.large.T @ work
        return (perf_counter() - start) / repeats
