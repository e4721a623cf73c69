"""Request-level benchmark of the domrecon CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run sets the workload up three times (inputs, files, independent
certificates and reference counts; setup_s is the median), hands the
request list to bench/worker.py, which serves whole passes of it through
domrecon.cli.main for S seconds, and then checks every distinct output
with bench/checker.py. It prints the requests attempted and failed, and
as its last line a JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced run (--trace 1, spans written to
.bench_out/trace-NAME-seedN.json).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3
DEADLINE_S = 170

UNITS = {
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "peak_mb": "MiB",
    "seq_moves": "moves",
    "setup_s": "s",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def serve(plan: dict, work: Path, timeout: float) -> dict:
    """Run bench/worker.py on a plan and return its result."""
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        cwd=ROOT,
    )
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outcomes(requests, outcomes) -> tuple[int, bool, list[int]]:
    """Check each distinct outcome of each request.

    Returns the failed request count (non-zero exit, exception or wrong
    answer), whether every answer was right, and the moves each request
    reported.
    """
    from checker import CheckError
    from workloads import RequestFailed

    failed = 0
    correct = True
    moves = []
    for request, distinct in zip(requests, outcomes):
        reported = 0
        for outcome in distinct:
            try:
                reported = request.check(outcome)
            except RequestFailed as exc:
                failed += outcome["count"]
                print(f"failed: {' '.join(request.argvs[0])}: {exc}", file=sys.stderr)
            except (CheckError, ValueError, IndexError, KeyError) as exc:
                # a malformed answer is a wrong answer
                failed += outcome["count"]
                correct = False
                print(f"wrong: {' '.join(request.argvs[0])}: {exc}", file=sys.stderr)
        moves.append(reported)
    return failed, correct, moves


def main(argv=None) -> int:
    began = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "domrecon" / "cli.py").is_file():
        return _fail(f"no domrecon sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")

    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    setup_tracer = None
    if args.trace:
        import domrecon.instances

        setup_tracer = tracing.Tracer()
        setup_tracer.install([
            ("instances", name, tracing.SPAN)
            for name in dir(domrecon.instances) if name.startswith("gen_")
        ])
    try:
        setup_times = []
        for i in range(SETUPS):
            if setup_tracer is not None:
                setup_tracer.request = f"setup{i}"
            shutil.rmtree(work, ignore_errors=True)
            start = perf_counter()
            requests = workloads.build(args.workload, args.seed, work / "inputs")
            setup_times.append(perf_counter() - start)
        if setup_tracer is not None:
            setup_tracer.uninstall()
        plan = {
            "src": str(SRC),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "requests": [{"argvs": r.argvs, "capture": r.capture} for r in requests],
        }
        result = serve(plan, work, DEADLINE_S - (perf_counter() - began))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    attempted = passes * len(requests)
    failed, correct, moves = check_outcomes(requests, result["outcomes"])
    pass_s = sum(result["latencies"]) / passes
    print(f"{args.workload}: {attempted} requests attempted, {failed} failed"
          f" ({passes} passes of {len(requests)}, {pass_s:.3f} s of requests per pass)")

    if args.trace:
        values = tracing.per_layer(result["trace"], passes)
        values["instances.gen_s"] = tracing.generator_seconds(setup_tracer.dump(), SETUPS)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": passes,
            "span_fields": ["name", "start_s", "end_s", "parent", "request", "children_s"],
            "setup": setup_tracer.dump(),
            "requests": result["trace"],
            "per_pass": values,
        }), encoding="utf-8")
        for name, value in values.items():
            print(f"  {name:42s} {value:.6g}")
        metrics = {
            name: {"value": value, "unit": "count" if not name.endswith("_s") else "s"}
            for name, value in values.items()
        }
    else:
        latencies = result["latencies"]  # pass by pass, in request order
        # Quantiles over the request list of each request's median across
        # passes. A few request kinds of very different cost make a pooled
        # quantile fall between two kinds and jump with the number of
        # passes; and a pooled p95 of a few samples is the slowest sample,
        # which one slow stretch of a shared host sets.
        n = len(requests)
        typical = [statistics.median(latencies[i::n]) for i in range(n)]
        pass_times = [sum(latencies[p * n:(p + 1) * n]) for p in range(passes)]
        values = {
            "req_per_s": n / statistics.median(pass_times),
            "req_p50_ms": statistics.median(typical) * 1000,
            "req_p95_ms": _percentile(typical, 95) * 1000,
            "peak_mb": result["peak_kib"] / 1024,
            "seq_moves": sum(moves),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
