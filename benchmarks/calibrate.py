"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed swings by 1.6-2x for tens
of seconds at a time, in pure-Python loops and in numpy alike, so raw wall
times of two runs of the same code can differ by that much.  A fixed piece
of work that does not touch pathtransport, timed right before each job,
tracks the host's current speed.  Each job's wall time is rescaled to
*reference seconds*: seconds on a host where the calibration takes
``REFERENCE_S``, which is what it takes on an uncontended 2.0 GHz Xeon core
(2 cores, 2 MiB L2 per core, 105 MiB shared L3) with Python 3.11 and
numpy 2.4.

numpy is imported on first use, so start-up probes can import this module
after their clock has stopped.
"""

import statistics
import time

#: Time of one calibration repetition, in seconds, on the reference host.
REFERENCE_S = 7.0e-4


def calibration_s() -> float:
    """Seconds taken now by a fixed mix of interpreter work and small-array
    numpy calls, the two kinds of work pathtransport's time is made of;
    the median of five repetitions."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2001)
    m = np.ones((500, 2, 2))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(10):
            np.sin(x) * np.cos(x)
            m @ m
            s = 0
            for i in range(300):
                s += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds: float, calibration: float) -> float:
    """Rescale a wall time measured while the calibration took ``calibration``."""
    return seconds * REFERENCE_S / calibration
