"""Reference kernel that converts measured seconds to reference-speed seconds.

On a shared virtual machine the speed of a core swings by up to 2x within
seconds, with the same work taking 0.45 s in one stretch and 0.9 s in the
next, so medians of raw wall times from two runs of the same code can differ
by far more than any useful regression bound.  Every timed interval of the
benchmark is therefore bracketed by two runs of this fixed kernel, which
collide1d never executes, and reported as

    seconds * REF_KERNEL_S / (mean kernel time around the interval)

i.e. the time the interval would have taken had the core run the kernel in
REF_KERNEL_S.  A change to collide1d moves these numbers exactly as it moves
raw time; a change in machine load moves the kernel too and cancels out.  The
raw seconds and scale factors are kept in the run record.
"""

from __future__ import annotations

import time

#: kernel time on an unloaded core of a 2-vCPU Xeon (Sapphire Rapids) VM
REF_KERNEL_S = 0.011


def kernel_s() -> float:
    """Seconds for a fixed mix of interpreter, small-LAPACK, FFT and streaming work."""
    import numpy as np

    start = time.perf_counter()
    acc, z = 0j, complex(0.9999, 0.0001)
    for _ in range(30000):
        acc = acc * z + 1.0
    m = np.array([[0.6, 0.1], [0.1, 0.4]])
    for _ in range(300):
        np.linalg.eigvalsh(m)
    a = np.arange(1 << 15, dtype=complex)
    for _ in range(4):
        a = np.fft.fft(a) / 181.0
    # memory-bound share: the dense and FFT layers stream arrays larger than L2
    big = np.ones(1 << 19, dtype=complex)
    for _ in range(2):
        big = big * 1.0001
    return time.perf_counter() - start


def scaled(fn):
    """Run ``fn()`` between two kernel timings; return (result, scale factor)."""
    before = kernel_s()
    result = fn()
    return result, REF_KERNEL_S / ((before + kernel_s()) / 2)
