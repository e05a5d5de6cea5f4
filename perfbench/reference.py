"""Reference figures for the README: wall time of each sweep at growing k.

Each target runs in a fresh process with SUMDIV_WORKERS=1, starting at its
default range and growing k until one run exceeds the target's acceptance
budget (tests/test_acceptance.py); that run is stopped at the budget.  The
last k within budget is the headline "largest k" figure.

    python3 perfbench/reference.py [target ...]
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

# target: (first k, largest k tried, budget in seconds).  odd2 and pi2 share
# one 120 s budget in the acceptance suite; here each gets it alone.  pi2
# stops at 22 because its irreducibility cache grows as 2^k entries.
TARGETS = {
    "crlodd": (14, 20, 60.0),
    "crleven": (12, 20, 60.0),
    "L15": (12, 18, 30.0),
    "bases": (5, 8, 120.0),
    "odd2": (14, 22, 120.0),
    "pi2": (14, 22, 120.0),
}

MEMORY_LIMIT = 2 << 30

CHILD = (
    "import sys, sumdiv.cli; "
    "sys.exit(sumdiv.cli.main(['verify', sys.argv[1], '--max-k', sys.argv[2], '--json']))"
)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_once(target: str, k: int, budget: float) -> float | None:
    """Seconds for one sweep, or None when it exceeded the budget."""
    env = dict(os.environ, SUMDIV_WORKERS="1", PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, target, str(k)],
        env=env, stdout=subprocess.DEVNULL, preexec_fn=_limit_memory,
    )
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    if code != 0:
        raise RuntimeError(f"{target} k={k} exited with {code}")
    return time.perf_counter() - start


def main(targets: list[str]) -> None:
    for target in targets or list(TARGETS):
        first, last, budget = TARGETS[target]
        for k in range(first, last + 1):
            seconds = run_once(target, k, budget)
            shown = f"{seconds:.2f} s" if seconds is not None else f"> {budget:.0f} s"
            print(f"{target} k={k}: {shown}", flush=True)
            if seconds is None:
                break


if __name__ == "__main__":
    main(sys.argv[1:])
