"""A fixed loop that measures how fast the machine runs right now.

On a shared machine the same work can take up to twice as long for
seconds to minutes at a time.  The benchmark times this loop just before
and just after every op and set-up, and scales the measured time by
REFERENCE_S over the loop time, so that a slow episode slows the loop and
the op alike and cancels.

The loop does the kind of work spinray does, but none of spinray's code,
so a change to the program cannot move it: it builds a frozen dataclass
whose fields are validated 3-vectors, and takes cross products, norms and
concatenations of length-3 arrays.  Of the loops tried on a shared
2-vCPU Xeon VM, this one tracked the slowdowns of slab_stack's ops most closely
(log-log slope 0.87, correlation 0.87); a pure-interpreter loop
undercorrected and a matrix-product loop overcorrected.
"""

import time
from dataclasses import dataclass

import numpy as np

LOOPS = 30
# About the loop time on the baseline machine (see README.md) in its
# fast state; it sets the scale of the reported times.
REFERENCE_S = 1.2e-3


def _vec3(value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError("expected a finite 3-vector")
    return v


@dataclass(frozen=True)
class _State:
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vec3(self.x))
        object.__setattr__(self, "u", _vec3(self.u))


def loop_time() -> float:
    x = np.array([0.3, -0.2, 0.9])
    u = np.array([0.0, 0.6, 0.8])
    start = time.perf_counter()
    for _ in range(LOOPS):
        s = _State(x, u)
        c = np.cross(s.x, s.u)
        y = np.concatenate([s.x + 0.01 * c / float(np.linalg.norm(c)), s.u])
        x, u = y[:3], y[3:] / np.linalg.norm(y[3:])
    return time.perf_counter() - start


def scale() -> float:
    """Factor that maps a time measured now to the reference speed."""
    return REFERENCE_S / loop_time()
