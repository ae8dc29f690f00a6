#!/usr/bin/env python3
"""Compare a bench's BENCH_JSON cells exactly against expected values.

    python3 tools/check_bench_json.py <bench stdout> <expected json>

The expected file is one JSON object: the "bench" name plus every cell
the bench must print. The bench output must contain a BENCH_JSON line
for that bench with exactly the same keys and values (the cells are
deterministic simulated cycles and bytes, so no tolerance applies).
Exits 1 and names each differing cell otherwise.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().split("\n\n")[1])
    output_path, expected_path = sys.argv[1], sys.argv[2]
    with open(expected_path, encoding="utf-8") as f:
        expected = json.load(f)
    got = None
    with open(output_path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("BENCH_JSON "):
                continue
            cells = json.loads(line[len("BENCH_JSON "):])
            if cells.get("bench") == expected["bench"]:
                got = cells
    if got is None:
        sys.exit(f"{output_path}: no BENCH_JSON line for "
                 f"{expected['bench']}")
    diffs = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            diffs.append(f"  {key}: expected {expected.get(key)}, "
                         f"got {got.get(key)}")
    if diffs:
        sys.exit(f"{expected['bench']} cells differ from "
                 f"{expected_path}:\n" + "\n".join(diffs))
    print(f"{expected['bench']}: {len(expected) - 1} cells match")


if __name__ == "__main__":
    main()
