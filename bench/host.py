"""Reference kernels that measure the host's speed, independent of ssgc.

The 2-vCPU host this benchmark was written on switches between fast and slow
states that last from seconds to minutes.  In a slow state, battery passes
and a 2x2 Riccati loop both took about 1.65 times as long; the n = 80
analysis and a complex resolvent solve took about 1.45 times as long.  Across
ten-minute stretches the fastest time of a call over a run moved by up to
25%, and one battery set of runs had a quartile spread of 0.59.

So a run probes the host's speed with one of these fixed kernels, which take
about 10 ms, at most every PROBE_INTERVAL_S while it measures.  Every time it
reports is scaled by the kernel's nominal time over the kernel's fastest time
in the run.  That gives seconds on a host where the kernel takes its nominal
time, which was the fast state of that host.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

PROBE_INTERVAL_S = 0.25


class Kernel(NamedTuple):
    run: Callable[[], None]
    nominal_s: float


def _small() -> None:
    """A 2x2 Riccati recursion: many tiny numpy calls, as in the battery."""
    a = np.array([[0.5, -0.3], [0.2, 0.4]])
    c = np.array([[1.0, 0.5]])
    q, r, s = np.eye(2), np.eye(1), np.zeros((2, 1))
    p = np.zeros((2, 2))
    for _ in range(400):
        cp = c @ p
        chol = np.linalg.cholesky(r + cp @ c.T)
        m = a @ cp.T + s
        k = np.linalg.solve(chol.T, np.linalg.solve(chol, m.T)).T
        p = a @ p @ a.T + q - m @ k.T
        p = 0.5 * (p + p.T)


def _large() -> None:
    """A (16, 160, 160) complex resolvent stack and its solve, as in frequency_response."""
    n = 160
    a = 0.9 * np.roll(np.eye(n), 1, axis=1)  # eigenvalues 0.9 e^{2 pi i k / n}
    z = np.exp(1j * np.linspace(-np.pi, np.pi, 16, endpoint=False))
    resolvent = z[:, None, None] * np.eye(n) - a
    np.linalg.solve(resolvent, np.broadcast_to(np.ones((n, 2)), (len(z), n, 2)))


KERNELS = {
    "small": Kernel(_small, 0.010),
    "large": Kernel(_large, 0.010),
}


class Probe:
    """Times a kernel now and then; its fastest time gives the run's scale."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self._last = -np.inf

    def maybe(self) -> None:
        """Time the kernel if PROBE_INTERVAL_S has passed since the last probe."""
        started = time.perf_counter()
        if started - self._last < PROBE_INTERVAL_S:
            return
        self.kernel.run()
        self._last = time.perf_counter()
        self.times.append(self._last - started)

    @property
    def scale(self) -> float:
        return self.kernel.nominal_s / min(self.times)
