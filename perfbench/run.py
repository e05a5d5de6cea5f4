"""The sumdiv benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep-sets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each round of the workload runs in
a fresh process (perfbench/worker.py) with SUMDIV_WORKERS=1 and sumdiv
imported from src/, so the package's process-wide caches start cold every
round, as they do for a command-line user.  Rounds repeat until --seconds
have passed.  The answers of the first round are checked against
perfbench/oracle.py; later rounds must give the same answers.

The last line of output is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1.  A fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 10
ROUND_TIMEOUT_S = 120


def _worker_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, SUMDIV_WORKERS="1", PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _start_worker(*flags: str) -> tuple[subprocess.Popen, float]:
    """A worker process and its set-up time: from start until it reports
    that sumdiv is imported."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if line.strip() != b"ready":
            raise RuntimeError("worker did not start")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup_s


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _finish(proc: subprocess.Popen, request: bytes | None = None) -> bytes:
    try:
        out, _ = proc.communicate(request, timeout=ROUND_TIMEOUT_S)
    except BaseException:  # a timeout, or SIGTERM turned into SystemExit
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_probe() -> float:
    proc, setup_s = _start_worker("--probe")
    _finish(proc)
    return setup_s


def run_round(ops: list, trace: bool, spans_path: Path) -> dict:
    proc, setup_s = _start_worker()
    request = json.dumps({"ops": ops, "trace": trace, "spans_path": str(spans_path)})
    report = json.loads(_finish(proc, request.encode()).splitlines()[-1])
    report["setup_s"] = setup_s
    report["traced"] = trace
    return report


def _failed(answer) -> bool:
    return isinstance(answer, dict) and "failed" in answer


def _op_name(op: list) -> str:
    label, args = op
    if label != "cli":
        return label
    return " ".join(args[:2]) + (args[2][args[2].index("@"):] if args[0] == "lunar" else "")


def _percentile(samples: list, q: float):
    """Nearest rank: the smallest sample with at least q of them at or below."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def upper_decile(values) -> float:
    """The 90th percentile, linear between ranks, of a time taken once a
    round (set-up: once a process) over a run.

    The machine's speed switches, after seconds to minutes, between a contended
    state in which code runs about half as fast and uncontended spells, and
    the share of each in a run changes from run to run.  The median over
    rounds jumps between the two states; a high percentile reads the
    contended state, which repeats from run to run.  A change to the program
    moves every round alike, so it moves this figure by the same share."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(rounds: list[dict], setups: list[float], ops: list) -> tuple[dict, dict]:
    """The metrics from untraced rounds, and the operation class at each
    round's median and 99th percentile.  A latency percentile is taken in
    each round, over the calls that did not fail, and its upper decile over
    rounds is reported; on the sweeps a call is one CLI command."""
    tails: dict[float, list] = {0.5: [], 0.99: []}
    for r in rounds:
        samples = [
            (t * 1e3, _op_name(op))
            for op, t, answer in zip(ops, r["latencies"], r["answers"])
            if not _failed(answer)
        ]
        for q, found in tails.items():
            found.append(_percentile(samples, q))
    values = {
        "setup_s": upper_decile(setups),
        "run_s": upper_decile(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
        "query_p50_ms": upper_decile(t for t, _ in tails[0.5]),
        "query_p99_ms": upper_decile(t for t, _ in tails[0.99]),
    }
    classes = {f"p{round(q * 100)}_class": sorted({c for _, c in found}) for q, found in tails.items()}
    return values, classes


def per_layer(traced: list[dict], untraced: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    problems = []
    for r in traced:
        self_total = sum(v for k, v in r["layers"].items() if k.endswith(".self_s"))
        if self_total > r["run_s"]:
            problems.append(f"layer self times {self_total:.3f} s exceed the traced run {r['run_s']:.3f} s")
    values = {
        name: (statistics.median_low if name.endswith(".calls") else statistics.median)(
            r["layers"].get(name, 0) for r in traced
        )
        for name in names
        if name != "trace.overhead_s"
    }
    # Rounds alternate untraced, traced: pairing neighbours cancels most of
    # the machine's drift in speed.
    values["trace.overhead_s"] = statistics.median(
        t["run_s"] - u["run_s"] for u, t in zip(untraced, traced)
    )
    return values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-sets", "sweep-algebra", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sumdiv" / "__init__.py").is_file():
        print(f"error: no sumdiv source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    # SIGTERM unwinds like an error, so the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ops = workloads.make_inputs(args.workload, args.seed)
    setup_probe()  # writes bytecode and warms the file cache; not counted
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    spans_path = OUT / f"spans-{args.workload}.tsv"
    rounds: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    # Traced runs alternate untraced and traced rounds, for the overhead.
    while len(rounds) < 1 + args.trace or time.perf_counter() < deadline:
        rounds.append(run_round(ops, bool(args.trace) and len(rounds) % 2 == 1, spans_path))
    setups += [r["setup_s"] for r in rounds]

    problems = workloads.Checker().check(ops, rounds[0]["answers"])
    problems += [
        f"round {i} answers differ from round 0"
        for i, r in enumerate(rounds)
        if r["answers"] != rounds[0]["answers"]
    ]
    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        values, more = per_layer([r for r in rounds if r["traced"]], untraced, list(units))
        problems += more
        latency = {}
    else:
        values, latency = end_to_end(untraced, setups, ops)

    failed = sum(_failed(a) for r in rounds for a in r["answers"])
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_s": setups, "latency": latency, "problems": problems, "result": result,
        "rounds": [{k: r[k] for k in ("run_s", "peak_rss_kb", "setup_s", "traced", "layers") if k in r}
                   for r in rounds],
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
