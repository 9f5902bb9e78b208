"""Host-speed reference kernel: timings are reported at a fixed host speed.

A shared virtual machine's speed can swing by up to 40 % between states that
last from a fraction of a second to minutes (README.md, Host speed, measured
on a 2-vCPU x86_64 VM), and every wall-clock time follows the swing. A
repetition therefore times this fixed kernel,
interleaved with its own work, and scales each time it reports by
``REFERENCE_NS / kernel``: the ratio of the kernel's nominal time to its median
time next to the measured work. A reported time is what the work takes when
the host runs the kernel in ``REFERENCE_NS``.

The kernel is written here and does not depend on the program under test. It
mixes the program's kinds of work: one-row and small-batch products with the
actor's shapes, ``tanh``, and interpreter-bound dict work. The swing slows
these kinds by different amounts, and README.md (Host speed) says how the
mix was chosen.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on the baseline host, between its fast and
# slow states (README.md, Host speed).
REFERENCE_NS = 650_000
WARMUP = 2

_rng = np.random.default_rng(0x5EED)
_W1 = _rng.standard_normal((405, 256))
_W2 = _rng.standard_normal((256, 256))
_ROW = _rng.standard_normal(405)
_BATCH = _rng.standard_normal((24, 405))


def kernel_ns() -> int:
    """Wall time of one pass of the reference kernel, in nanoseconds."""
    start = time.perf_counter_ns()
    for _ in range(8):
        np.tanh(np.tanh(_ROW @ _W1) @ _W2)
    np.tanh(_BATCH @ _W1) @ _W2
    counts: dict[int, int] = {}
    for i in range(320):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter_ns() - start


def sample(count: int) -> list[int]:
    """``count`` kernel times, after WARMUP passes that are not kept."""
    for _ in range(WARMUP):
        kernel_ns()
    return [kernel_ns() for _ in range(count)]


def scale(samples) -> float:
    """Factor that brings times measured next to ``samples`` to the reference speed."""
    return REFERENCE_NS / statistics.median(samples)
