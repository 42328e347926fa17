"""Host-speed gauge: rescales measured host time to a reference speed.

The benchmark shares its host with other machines' work, and on such a
host the same program can run at half speed or less for minutes at a
time, in CPU time as well as wall time (a busy neighbour on the same
physical core). A fixed reference kernel, timed right before and right
after each measured operation, shows how fast the host ran meanwhile.
The operation's host time is multiplied by

    (REFERENCE_KERNEL_S / mean(kernel time before, after)) ** SENSITIVITY

so it reads about as if the host ran at the speed it had when
``REFERENCE_KERNEL_S`` was measured (an idle 2-vCPU Xeon guest, where
the factor is about 1). A change to the program does not touch the
kernel, so it moves the rescaled times in full.

``SENSITIVITY`` is below 1 because contention slows the kernel's tight
loops more than the frame loop. Measured on the reference host while a
neighbour slowed the kernel 1.8 to 2.7 times, each host metric slowed
by the kernel's slowdown to a power between 0.65 and 1.0 (lower on
``s1_keyframe``, higher on ``s3_tracking`` and for set-up). With 0.85,
four contended runs read ``sim_frames_per_s`` within 9% of the idle
figure; raw CPU time was 1.8 to 2.1 times off, and a power of 1 up to
23% off.

The kernel mixes what the frame loop spends its time on: interpreted
loops over small slotted objects, float arithmetic with ``min``/``max``
clamps, list stores, and many small numpy calls. It allocates nothing
but temporaries, so its speed does not depend on the state of the heap
the program left behind.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Median time of one :func:`reference_kernel` call on the reference host.
REFERENCE_KERNEL_S = 1.73e-3

#: Power of the kernel's slowdown that the frame loop's slowdown follows.
SENSITIVITY = 0.85

#: Kernel calls per :meth:`SpeedGauge.sample`; the sample is their median.
SAMPLE_CALLS = 5


class _Box:
    __slots__ = ("x0", "y0", "x1", "y1")

    def __init__(self, i: int) -> None:
        self.x0, self.y0 = i % 17 * 3.0, i % 11 * 5.0
        self.x1, self.y1 = self.x0 + 9.0, self.y0 + 7.0


_LEFT = [_Box(i) for i in range(48)]
_RIGHT = [_Box(i) for i in range(48, 96)]
_ROW = [0.0] * len(_RIGHT)
_POINTS = np.linspace(0.0, 1.0, 64)
_SHIFTED = np.empty_like(_POINTS)
_ABS = np.empty_like(_POINTS)


def reference_kernel() -> float:
    """A fixed amount of frame-loop-like work; returns a checksum."""
    acc = 0.0
    row = _ROW
    for a in _LEFT:
        j = 0
        for b in _RIGHT:
            w = min(a.x1, b.x1) - max(a.x0, b.x0)
            h = min(a.y1, b.y1) - max(a.y0, b.y0)
            inter = w * h if w > 0.0 and h > 0.0 else 0.0
            row[j] = 1.0 - inter / (126.0 - inter)
            j += 1
        acc += min(row)
    for i in range(120):
        np.multiply(_POINTS, 1.0 + i * 1e-3, out=_SHIFTED)
        np.subtract(_SHIFTED, 0.5, out=_SHIFTED)
        np.abs(_SHIFTED, out=_ABS)
        acc += float(_ABS.argmin()) + float(_SHIFTED.sum())
    return acc


class SpeedGauge:
    """Samples the reference kernel's speed around measured operations."""

    def __init__(self) -> None:
        #: Every sample taken, in CPU seconds per kernel call.
        self.samples: List[float] = []

    def sample(self) -> float:
        """Median CPU time of :data:`SAMPLE_CALLS` kernel calls, now.

        One untimed call first brings the kernel back into the caches
        the program filled with its own code and data, and the collector
        is paused so that a collection of the program's heap does not
        land in a timed call.
        """
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_kernel()
            for _ in range(SAMPLE_CALLS):
                start = time.thread_time()
                reference_kernel()
                times.append(time.thread_time() - start)
        finally:
            if enabled:
                gc.enable()
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales an operation timed between two samples."""
        return (REFERENCE_KERNEL_S / ((before + after) / 2.0)) ** SENSITIVITY
