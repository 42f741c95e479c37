"""Measurement helpers: percentiles, process CPU and memory, env stamp.

Everything here observes the program from outside: wall time from
``time.perf_counter``, CPU from ``time.process_time`` and, for forked
shard workers, from ``/proc/<pid>/stat`` (Linux); memory from
``resource`` and ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path

from repro.serving import nearest_rank


def beyond(values, percentile: float) -> int:
    """How many samples lie strictly above the nearest-rank percentile."""
    cut = nearest_rank(values, percentile)
    return sum(1 for value in values if value > cut)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name start at field 3.
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_speed(seconds: float = 0.3) -> float:
    """Iterations per second of a fixed pure-Python loop.

    Not a metric of the program: a stamp of how fast the host ran when
    the result was taken, so a compare across hosts or host states can
    be read for what it is.
    """
    iterations = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        total = 0
        for value in range(10_000):
            total += value * value % 7
        iterations += 1
    return iterations / (time.perf_counter() - started)


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def env_stamp(root: Path) -> dict:
    """What a result depends on besides the code: versions and cores."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
