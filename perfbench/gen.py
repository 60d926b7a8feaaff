"""Input generator: weight file, messages, keys and child seeds from one seed.

    python3 perfbench/gen.py --seed S --n N --bits K --setup-bits B --out DIR

Runs as its own process so that the driver never holds the weight array
(see run.py). Everything comes from the package's SplitMix64
(rng.splitmix64_stream, rng.random_bits, rng.u64_to_unit), so one seed
always gives the same bytes. The Box-Muller step is written out here, in
chunks, instead of calling stats.sample_gaussian_weights: inputs must not
change when a later change touches the sampler under test, and chunking
keeps the 20M-weight file from needing a gigabyte of temporaries.
Writes DIR/in.cwcw (when N > 0) and prints a JSON manifest on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys

import numpy as np

from cwmark import rng

from plan import SIGMA

CHUNK = 1 << 20


def write_weights(path: str, n: int, seed: int) -> None:
    """CWCW v1 file of n N(0, SIGMA^2) binary32 weights, chunk c from seed stream[c]."""
    seeds = rng.splitmix64_stream(seed, -(-n // CHUNK))
    with open(path, "wb") as out:
        out.write(struct.pack("<4sHQ", b"CWCW", 1, n))
        for c, chunk_seed in enumerate(seeds.tolist()):
            m = min(CHUNK, n - c * CHUNK)
            u = rng.u64_to_unit(rng.splitmix64_stream(chunk_seed, m + (m & 1)))
            radius = np.sqrt(-2.0 * np.log(u[0::2]))
            angle = (2.0 * np.pi) * u[1::2]
            z = np.empty(u.size)
            z[0::2] = radius * np.cos(angle)
            z[1::2] = radius * np.sin(angle)
            out.write((SIGMA * z[:m]).astype("<f4").tobytes())


def hex_message(seed: int, bits: int) -> str:
    """bits random bits as the CLI's hex: bit t is bit t of the integer."""
    packed = np.packbits(rng.random_bits(seed, bits), bitorder="little")
    return format(int.from_bytes(packed.tobytes(), "little"), f"0{bits // 4}x")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--bits", type=int, default=64)
    parser.add_argument("--setup-bits", type=int, default=64)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    weight_seed, message_seed, key, setup_seed, eval_seed = rng.splitmix64_stream(args.seed, 5).tolist()
    manifest = {
        "numpy": np.__version__,
        "message": hex_message(message_seed, args.bits),
        "setup_message": hex_message(setup_seed, args.setup_bits),
        "key": key,
        "eval_seed": eval_seed,
        "input_bytes": 0,
    }
    if args.n:
        path = os.path.join(args.out, "in.cwcw")
        write_weights(path, args.n, weight_seed)
        manifest["input_bytes"] = os.path.getsize(path)
    json.dump(manifest, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
