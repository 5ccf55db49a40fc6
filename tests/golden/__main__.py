"""``python -m tests.golden`` — check or regenerate ``fingerprints.json``.

Without arguments: recompute the whole matrix and exit 1 if any row
differs from the stored file.  ``--write`` stores what was computed and
prints the rows that moved, so a behaviour PR can state them.
``--tier1`` restricts either mode to the tier-1 slice.
"""

from __future__ import annotations

import argparse
import json
import sys

from tests.golden import PATH, compute, matrix, stored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("--write", action="store_true", help="store the computed hashes")
    parser.add_argument("--tier1", action="store_true", help="only the tier-1 slice")
    args = parser.parse_args(argv)

    rows = matrix()
    names = [name for name, row in rows.items() if row.tier1 or not args.tier1]
    computed = compute(names)
    before = stored() if PATH.exists() else {}
    moved = sorted(k for k, v in computed.items() if before.get(k) not in (None, v))
    added = sorted(k for k in computed if k not in before)
    kept = {k: v for k, v in before.items() if k.rsplit("@", 1)[0] in rows}
    gone = sorted(set(before) - set(kept))
    for label, keys in (("moved", moved), ("added", added), ("removed", gone)):
        for k in keys:
            print(f"{label}: {k}")
    print(
        f"{len(computed)} configurations: {len(moved)} moved, "
        f"{len(added)} added, {len(gone)} removed"
    )
    if args.write:
        PATH.write_text(
            json.dumps({**kept, **computed}, indent=0, sort_keys=True) + "\n"
        )
        return 0
    return 1 if moved or added or gone else 0


if __name__ == "__main__":
    sys.exit(main())
