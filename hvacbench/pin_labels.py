"""Regenerate ``pins.json``: the extract-paper label digest and tree size per seed.

The pins are the reference the benchmark checks every extraction against, so
a change that alters labels (a float32 fast path, a reordered random stream)
fails the run instead of passing as a speed-up.  Regenerate them only for a
change that is meant to alter labels, and say so where the change is
recorded::

    python3 hvacbench/pin_labels.py --size full --seeds 0-31
    python3 hvacbench/pin_labels.py --size smoke --seeds 0-3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hvacbench import extract_paper  # noqa: E402
from hvacbench.common import import_program, scratch_dir  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(extract_paper.ENTRIES), required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    import_program()
    pins = json.loads(extract_paper.PINS.read_text()) if extract_paper.PINS.is_file() else {}
    table = pins.setdefault(f"extract-paper/{args.size}", {})
    with scratch_dir("pin") as root:
        for seed in range(int(low), int(high or low) + 1):
            chain = extract_paper._chain(seed, extract_paper.ENTRIES[args.size], root / str(seed))
            table[str(seed)] = {"label_digest": chain["label_digest"], "node_count": chain["node_count"]}
            print(seed, table[str(seed)], flush=True)
    extract_paper.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
