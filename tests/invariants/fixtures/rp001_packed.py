"""Known-violation fixture for the 64-bit lane test (RP001)."""

import numpy as np

_MASK = (1 << 64) - 1  # legal: constant-base shift, the canonical mask idiom
_OK = np.zeros(4, dtype=np.uint64)  # legal: pinned 64-bit lane


def violations(x):
    shifted = x << 64  # RP001: value shifted past the lane
    wide = x & 0x1FFFFFFFFFFFFFFFF  # RP001: 65-bit mask literal
    unpinned = np.zeros(4)  # RP001: no dtype
    narrow = np.array([1, 2], dtype=np.int32)  # RP001: narrow dtype
    cast = np.uint32(x)  # RP001: narrowing scalar cast
    return shifted, wide, unpinned, narrow, cast
