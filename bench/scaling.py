"""Scaling reference figures for the treewidth sweep and the threshold scan.

Usage, from the root of a source checkout:

    python3 bench/scaling.py

Times one td-sweep-style request (transform --method treewidth, then
verify) on the benchmark's random tree at n = 200 .. 3200, and one
`oracle --scan KMAX` on mynhardt(3) for KMAX = 5 .. 10, each served once by
bench/worker.py and checked like the benchmark's own requests. Prints a
table with the ratio to the previous row and writes it to
.bench_out/scaling.json. These are reference curves for sweep and scan
work; they carry no bound. Takes a few minutes, most of it at n = 3200.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

from run import OUT, SRC, check_outcomes, serve

TREE_SIZES = (200, 400, 800, 1600, 3200)
SCAN_KMAX = (5, 6, 7, 8, 9, 10)
SEED = 1


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    work = OUT / f"scaling-{os.getpid()}"
    work.mkdir(parents=True)
    rng = random.Random(f"scaling:{SEED}")
    rows = []
    requests = []
    try:
        for n in TREE_SIZES:
            case = workloads.tree_case(n, workloads.TREE_SEED)
            requests.append(workloads.sweep_request(case, rng, work))
            rows.append({"series": "tree-sweep", "size": n})
        myn3 = workloads.mynhardt_case(3)[2]
        for kmax in SCAN_KMAX:
            thresholds = workloads.mynhardt_thresholds(3, range(kmax + 1))
            requests.append(workloads.scan_request(f"myn3-{kmax}", myn3, kmax, thresholds, work))
            rows.append({"series": "mynhardt3-scan", "size": kmax})
        plan = {
            "src": str(SRC),
            "seconds": 0,
            "trace": False,
            "requests": [{"argvs": r.argvs, "capture": r.capture} for r in requests],
        }
        result = serve(plan, work, timeout=1800)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, correct, moves = check_outcomes(requests, result["outcomes"])
    previous = {}
    print(f"{'series':15s} {'size':>5s} {'seconds':>9s} {'ratio':>6s} {'moves':>7s}")
    for row, latency, reported in zip(rows, result["latencies"], moves):
        row["seconds"] = latency
        row["moves"] = reported
        before = previous.get(row["series"])
        ratio = f"{latency / before:6.2f}" if before else "      "
        previous[row["series"]] = latency
        print(f"{row['series']:15s} {row['size']:5d} {latency:9.3f} {ratio} {reported:7d}")
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(
        json.dumps({"seed": SEED, "correct": correct, "failed": failed, "rows": rows}),
        encoding="utf-8",
    )
    print(f"{len(requests)} requests, {failed} failed, correct={str(correct).lower()}")
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
