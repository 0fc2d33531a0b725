"""The host's current speed, for scaling times measured on a shared host."""

import time

# calibrate() on an idle 2-vCPU Xeon host (OpenBLAS Haswell kernels)
CALIB_REF_S = 0.060


def calibrate():
    """Wall time of a fixed pure-Python loop that uses no program code:
    the speed the shared host gives this process right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(900_000):
        s += i * i % 7
    return time.perf_counter() - t0
