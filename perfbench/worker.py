"""One round of a workload, in a fresh process started by run.py.

Protocol: print "ready" once sumdiv is imported, read the round's
operations as JSON from stdin, run them, and print one JSON line with the
round's wall time, peak memory, per-call latencies and plain answers (and,
when traced, the per-layer summary).  With --probe the process exits right
after "ready": run.py uses it to time set-up alone.
"""

import sys
import time

import sumdiv
import sumdiv.cli


def main() -> None:
    print("ready", flush=True)
    if "--probe" in sys.argv:
        return
    # The benchmark's own modules load after "ready", outside set-up time.
    import json
    import resource
    from pathlib import Path

    import workloads
    from tracer import Tracer

    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    calls = workloads.build_calls(request["ops"], sumdiv)
    if tracer is not None:
        calls = [(label, tracer.wrap(fn, f"bench.{label}"), args) for label, fn, args in calls]

    clock = time.perf_counter
    results, latencies = [], []
    started = clock()
    for label, fn, args in calls:
        t0 = clock()
        try:
            results.append(fn(*args))
        except Exception as exc:  # counted as a failed operation
            results.append(exc)
        latencies.append(clock() - t0)
    run_s = clock() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    answers = []
    for (label, _, _), result in zip(calls, results):
        if isinstance(result, Exception):
            answers.append({"failed": type(result).__name__})
        elif label == "cli":
            answers.append(workloads.plain_cli(*result))
        else:
            answers.append(workloads.plain(result, sumdiv))
    report = {
        "run_s": run_s,
        "peak_rss_kb": peak_rss_kb,
        "latencies": latencies,
        "answers": answers,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.save(Path(request["spans_path"]))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
