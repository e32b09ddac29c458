"""Known-violation fixture for the test-determinism test (RP006)."""

import random
import time
from datetime import datetime

import numpy as np


def test_flaky_everything():
    unseeded = random.random()  # RP006: global generator
    np_unseeded = np.random.rand(3)  # RP006: numpy global generator
    wall = time.time()  # RP006: wall clock
    now = datetime.now()  # RP006: wall clock
    start = time.perf_counter()  # legal outside an assert
    assert time.perf_counter() - start < 1.0  # RP006: timer in assert
    seeded = random.Random(42).random()  # legal
    rng = np.random.default_rng(7)  # legal
    return unseeded, np_unseeded, wall, now, seeded, rng
