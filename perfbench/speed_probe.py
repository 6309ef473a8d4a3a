"""Host speed probe: a fixed amount of work that never touches signdeloop.

    python3 perfbench/speed_probe.py

Prints the seconds that a fixed Python part (composing tuple permutations,
as the verification layers do) and a fixed numpy part (bitwise passes over
a 32 MiB array, as the census does) took in this fresh interpreter, each
the median of ROUNDS rounds.  run.py spawns it between repetitions and
scales the run's times by the median probe, so a shared host that runs all
code slower for a while moves both alike and leaves the scaled times in
place; a change to the package moves only the repetitions.  The numpy part
takes
most of the probe's time: on a 2-vCPU VM shared with other tenants,
memory-bound passes followed the slowdowns of every workload more closely
than Python work alone.
"""

from __future__ import annotations

import time
from itertools import permutations
from statistics import median

import numpy as np


ROUNDS = 3  # each part runs this often; the probe reports their medians


def python_part(perms) -> float:
    start = time.perf_counter()
    acc = 0
    for p in perms:
        for q in perms[::15]:
            acc += tuple(p[i] for i in q)[0]
    return time.perf_counter() - start


def numpy_part(masks) -> float:
    start = time.perf_counter()
    for k in range(2):
        np.count_nonzero(((masks >> k) ^ (masks >> (k + 7))) & 1)
    return time.perf_counter() - start


def probe() -> float:
    perms = list(permutations(range(6)))
    masks = np.arange(1 << 23, dtype=np.uint32)
    return (median(python_part(perms) for _ in range(ROUNDS))
            + median(numpy_part(masks) for _ in range(ROUNDS)))


if __name__ == "__main__":
    print(probe())
