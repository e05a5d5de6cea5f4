"""Code run in a fresh interpreter, as an installed command runs: the checks
on what a command loads, and on a process's peak memory, need a process
that has run nothing else.
"""

import subprocess
import sys
from pathlib import Path

import sumdiv

SRC = str(Path(sumdiv.__file__).resolve().parents[1])

# The child's last line: its peak as the library reads it.  The import
# adds about 0.15 MB to a bare interpreter's peak and loads no numpy.
_PEAK = "\nfrom sumdiv.verify import _peak_rss_kib\nprint(_peak_rss_kib())\n"


def fresh(code: str) -> tuple[str, int | None]:
    """Run code in a fresh interpreter that finds sumdiv in src/; return its
    stdout and its peak RSS in KiB.  The peak is None off Linux, the one
    platform whose status file has a VmHWM line: elsewhere the fallback,
    ru_maxrss, may carry this process's peak into the child, so no bound on
    it would hold."""
    out = subprocess.run(
        [sys.executable, "-c", code + _PEAK],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    *lines, peak = out.stdout.splitlines(keepends=True)
    return "".join(lines), int(peak) if sys.platform.startswith("linux") else None
