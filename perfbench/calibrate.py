"""Calibration child: fixed work that does not touch cwmark.

    python3 perfbench/calibrate.py DIR

The driver times this child between the program's children and scales
their wall times by its start-up and work times, so that the machine's
changes of speed cancel out of the end-to-end times (NOTES.md, "Speed
calibration"). It does, on a fixed scale, the kinds of work the
workloads' children do: a fresh interpreter that imports numpy, an exact
big-integer binomial table, numpy passes over freshly allocated arrays,
and a file written to DIR and read back. Its work never changes with the
program under test. Prints the seconds of each part on one line: the
numpy import, then the three parts of work.
"""

from __future__ import annotations

import os
import sys
import time

start = time.perf_counter()
import numpy as np  # noqa: E402  (the import is part of what is timed)

LADDER_L, LADDER_LEVELS = 10000, 70
ARRAY_N = 12_000_000
FILE_BYTES = 32 << 20


def ladder() -> int:
    """Rows of binomial(n, l) for n up to LADDER_L, built by exact multiply/divide."""
    rows = []
    for level in range(1, LADDER_LEVELS + 1):
        row = [0] * level + [1]
        v = 1
        for n in range(level + 1, LADDER_L + 1):
            v = v * n // (n - level)
            row.append(v)
        rows.append(row)
    return sum(len(row) for row in rows)


def arrays() -> float:
    """Whole-vector passes like the file verbs': widen, mean square, partition, masked copy."""
    x = np.arange(ARRAY_N, dtype=np.float32) * np.float32(1e-7)
    rms = float(np.sqrt(np.mean(np.square(x.astype(np.float64)))))
    mag = np.abs(x)
    cutoff = float(np.partition(mag, ARRAY_N // 2)[ARRAY_N // 2])
    out = x.copy()
    out[mag < cutoff] = 0.0
    return rms + cutoff


def file_round_trip(directory: str) -> int:
    path = os.path.join(directory, "calibrate.bin")
    payload = bytes(range(256)) * (FILE_BYTES // 256)
    with open(path, "wb") as handle:
        handle.write(payload)
    with open(path, "rb") as handle:
        size = len(handle.read())
    os.remove(path)
    return size


def main() -> int:
    parts = [time.perf_counter() - start]
    for step in (ladder, arrays, lambda: file_round_trip(sys.argv[1])):
        t = time.perf_counter()
        step()
        parts.append(time.perf_counter() - t)
    print(" ".join(f"{p:.6f}" for p in parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
