#!/usr/bin/env python3
"""Rewrite chosen entries of tests/data/published_weights.json.

Usage: python scripts/write_published_weights.py design2 design3

Each named built-in flat-top design is run through find_min_order and its
weights replace the stored entry; every other entry is written back as it
was.  Floats are written with repr (json's float format), so they
round-trip exactly.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray import builtin_spec, find_min_order

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "data" / "published_weights.json"


def main(names: list[str]) -> int:
    data = json.loads(FIXTURE.read_text())
    for name in names:
        if name not in ("design1", "design2", "design3"):
            print(f"error: {name!r} is not a flat-top design", file=sys.stderr)
            return 1
        data[name] = find_min_order(builtin_spec(name)).weights.c.tolist()
    FIXTURE.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
