"""Machine-speed probe: a fixed kernel timed next to every measurement.

On a shared machine one core's speed drifts by up to 1.5x, in spells that
last from seconds to minutes (other tenants' work on the same core). Runs
made a minute apart then differ by 20-25% in wall time, more than any bound
a regression gate can use. The probe measures that drift: each benchmark
time is multiplied by ``REFERENCE_S / probe time``, where the probe time is
measured right before and right after it. The result reads as seconds on a
machine running the kernel in ``REFERENCE_S``.

The kernel mixes the kinds of work nfcs does: interpreted Python, a complex
matrix product, elementwise complex exponentials and a loop of small numpy
calls like the ones a greedy solver makes. It calls nothing in
nfcs, so no change to the library can move it.
"""

import time

import numpy as np

# Kernel time on a 2-core Xeon VM (OpenBLAS, one thread) in its fast spells.
REFERENCE_S = 0.030


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((200, 512)) + 1j * rng.standard_normal((200, 512))
        self._b = rng.standard_normal((512, 1024)) + 1j * rng.standard_normal((512, 1024))
        self._c = rng.standard_normal(100_000)
        self._s = rng.standard_normal((80, 256)) + 1j * rng.standard_normal((80, 256))
        self._v = rng.standard_normal(80) + 0j

    def seconds(self) -> float:
        """Wall seconds of one run of the kernel."""
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        self._a @ self._b
        np.exp(1j * self._c).sum()
        for _ in range(200):
            k = int(np.argmax(np.abs(np.conj(self._s.T) @ self._v)))
            sub = self._s[:, [k, (k + 1) % 256, (k + 7) % 256, (k + 9) % 256]]
            np.linalg.inv(np.conj(sub.T) @ sub)
        return time.perf_counter() - start

    def timed(self, fn):
        """``(result, wall seconds, speed factor)`` of ``fn()``.

        The factor is ``REFERENCE_S`` over the mean of the probe times just
        before and just after the call; multiply a time by it to normalise.
        """
        before = self.seconds()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        factor = REFERENCE_S / (0.5 * (before + self.seconds()))
        return result, wall, factor
