#!/usr/bin/env python3
"""Rewrite chosen entries of tests/data/published_weights.json.

Usage: python scripts/write_published_weights.py design2 pencil27

A flat-top entry (design1, design2, design3) is run through
find_min_order, and a pencil entry (pencil27, pencil29) is built by
design_pencil with that many elements; its weights replace the stored
entry.  Every other entry is written back as it was.  Floats are written
with repr (json's float format), so they round-trip exactly.  For each
entry rewritten the script prints its element count N and how far its
weights moved, max |old - new|.
"""
import json
import sys

import numpy as np
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray import builtin_spec, design_pencil, find_min_order

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "data" / "published_weights.json"

ENTRIES = {
    **{key: lambda key=key: find_min_order(builtin_spec(key)).weights.c
       for key in ("design1", "design2", "design3")},
    **{f"pencil{n}": lambda n=n: design_pencil(n).taps for n in (27, 29)},
}


def main(names: list[str]) -> int:
    data = json.loads(FIXTURE.read_text())
    for name in names:
        if name not in ENTRIES:
            print(f"error: {name!r} is not one of {', '.join(ENTRIES)}", file=sys.stderr)
            return 1
        old, new = np.array(data.get(name, [])), ENTRIES[name]()
        moved = f"{np.max(np.abs(old - new)):.3e}" if old.shape == new.shape else "n/a (new length)"
        print(f"{name}: N = {len(new)}, max |old - new| = {moved}")
        data[name] = new.tolist()
    FIXTURE.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
