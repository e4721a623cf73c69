"""Serve a request plan through domrecon.cli.main, in a process of its own.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The process imports domrecon and nothing heavy (no numpy or scipy), so
its peak resident memory is that of a CLI process answering the
requests, and garbage collection is not slowed by the harness's own
objects. It runs whole passes over the plan's request list, one request
after another (a closed loop with one client), starting passes until
the plan's seconds are used up. It then writes the latencies, the
distinct outcomes of each request, the peak memory and, when tracing,
the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _peak_kib() -> int:
    """High-water resident memory of this process image, in KiB.

    VmHWM belongs to the memory map made at exec, so it excludes the
    parent's pages; ru_maxrss would not, since Linux carries the forking
    parent's resident size across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _invoke(main, argv) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception is a failed request
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def serve(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import domrecon.cli as cli

    tracer = None
    if plan["trace"]:
        from tracing import TARGETS, Tracer

        tracer = Tracer()
        missing = tracer.install(TARGETS)
        for name in missing:
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)

    requests = plan["requests"]
    latencies: list[float] = []
    outcomes: list[dict] = [{} for _ in requests]
    passes = 0
    began = perf_counter()
    while passes == 0 or perf_counter() - began < plan["seconds"]:
        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.request = f"p{passes}:r{index}"
            results = []
            start = perf_counter()
            for argv in request["argvs"]:
                results.append(_invoke(cli.main, argv))
            latencies.append(perf_counter() - start)
            captured = None
            if request["capture"]:
                with contextlib.suppress(OSError), open(request["capture"], encoding="utf-8") as fh:
                    captured = fh.read()
            codes = [code for code, _, _ in results]
            stdouts = [out for _, out, _ in results]
            key = json.dumps([codes, stdouts, captured])
            seen = outcomes[index].get(key)
            if seen is None:
                outcomes[index][key] = {
                    "codes": codes,
                    "stdout": stdouts,
                    "stderr": [err for _, _, err in results],
                    "captured": captured,
                    "count": 1,
                }
            else:
                seen["count"] += 1
        passes += 1
        if passes == 1:
            # later passes repeat the same requests; what they add is the
            # harness's own bookkeeping, so the peak is read here
            peak_kib = _peak_kib()
    result = {
        "passes": passes,
        "latencies": latencies,
        "outcomes": [list(by_key.values()) for by_key in outcomes],
        "peak_kib": peak_kib,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    return result


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = serve(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
