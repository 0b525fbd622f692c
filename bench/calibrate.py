"""The benchmark's host-speed probe: fixed numpy work in a fresh process.

    python3 bench/calibrate.py

The parent times this process from spawn to exit.  It starts an interpreter,
imports numpy, and runs spectral transforms and element-wise products on
64² to 256² fields: the kinds of work an experiment process does, but with
no eulerlab code, so no change to the program moves its time.  On a shared
host its median over a run follows the host's speed the way the
experiments' set-up and wall times do.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    total = 0.0
    for n, reps in ((64, 80), (128, 40), (256, 20)):
        u = rng.standard_normal((n, n))
        for _ in range(reps):
            v = np.fft.irfft2(np.fft.rfft2(u) * 1j, s=u.shape)
            w = u * v + u
            total += float((w * w).sum())
    print(total)


if __name__ == "__main__":
    main()
