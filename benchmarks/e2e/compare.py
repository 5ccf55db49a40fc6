"""Compare two results of ``run.py``: ``python benchmarks/e2e/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B what is judged against it.  For every workload and end-to-end
metric in both files it prints both medians with their quartiles over the
repetitions, how much worse B's median is as a share of A's, the metric's
bound, and

``ok``          B is no worse than A by more than the bound
``worse``       it is
``unresolved``  A's or B's repetitions spread (third minus first quartile,
                as a share of the median) wider than the bound: the runs
                cannot tell

A bound of 0 (``failed_share``) is absolute: B is ``worse`` when its median
is above A's at all.  Values that are exact for a seed (outcome
fingerprint, ``sim_*``, cell, task and event counts) are compared for
equality when both files used the same seed.  Exit code 0 means every row
is ``ok`` and every exact value equal.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def judge(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """One metric of one workload, A against B."""
    bound = a["bound"]
    worse_by = b["median"] - a["median"]
    if a["better"] == "higher":
        worse_by = -worse_by
    if bound == 0:
        return {"worse_by": worse_by, "spread": 0.0, "bound": bound,
                "status": "worse" if worse_by > 0 else "ok"}
    worse_by /= a["median"]
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    if spread > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {"worse_by": worse_by, "spread": spread, "bound": bound, "status": status}


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the table; return the rows that are not ok."""
    bad: List[str] = []
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    print(
        f"A: commit {a['environment']['commit'][:12]} seed {a['seed']}   "
        f"B: commit {b['environment']['commit'][:12]} seed {b['seed']}"
    )
    header = (
        f"{'workload':14s} {'metric':22s} {'A median [q1, q3]':>40s} "
        f"{'B median [q1, q3]':>40s} {'B worse by':>11s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"].get(name)
            if mb is None:
                continue
            verdict = judge(ma, mb)
            cells = [
                f"{m['median']:.4f} [{m['q1']:.4f}, {m['q3']:.4f}] n={m['n']}"
                for m in (ma, mb)
            ]
            print(
                f"{workload:14s} {name:22s} {cells[0]:>40s} {cells[1]:>40s} "
                f"{verdict['worse_by']:+10.2%} {verdict['spread']:7.2%} {verdict['bound']:6.0%}  "
                f"{verdict['status']}"
            )
            if verdict["status"] != "ok":
                bad.append(f"{workload} {name}: {verdict['status']}")
        if not same_seed:
            continue
        for key, value in wa["exact"].items():
            equal = wb["exact"].get(key) == value
            print(f"{workload:14s} {key:22s} exact: {'equal' if equal else 'DIFFERENT'}")
            if not equal:
                bad.append(f"{workload} {key}: {value} != {wb['exact'].get(key)}")
    if not same_seed:
        print("different seeds or sizes: exact values not compared")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fh:
            documents.append(json.load(fh))
    bad = compare(*documents)
    for row in bad:
        print(f"NOT OK: {row}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
