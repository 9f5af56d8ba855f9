"""Provenance stamped on every result: machine, load, library versions, code.

Timings taken on a busy machine mislead: with the test suite running
beside a benchmark, kernels read 3-40x slower than on an idle machine.
So a run samples how busy the CPUs are *before it starts any work* and
flags itself when other processes hold more than a quarter of them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import time

#: Other processes' share of all CPUs above which a run is flagged busy.
BUSY_SHARE = 0.25
#: Share of CPU time stolen by the hypervisor during the run above which
#: the run is flagged contended (serving p50 rose ~30% at 6-8% steal).
STEAL_SHARE = 0.01


def _cpu_times() -> tuple[int, int, int] | None:
    """``(busy, steal, total)`` jiffies over all CPUs, or ``None`` off Linux.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; it counts as busy.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields) - idle, steal, sum(fields)


def _shares(before, after) -> tuple[float | None, float | None]:
    """``(busy share, steal share)`` of all CPUs between two readings."""
    if before is None or after is None or after[2] == before[2]:
        return None, None
    total = after[2] - before[2]
    return (after[0] - before[0]) / total, (after[1] - before[1]) / total


def busy_share(window_s: float = 0.5) -> float | None:
    """Share of all CPUs busy over ``window_s`` while this process sleeps."""
    before = _cpu_times()
    time.sleep(window_s)
    return _shares(before, _cpu_times())[0]


def blas_threads() -> int | None:
    """OpenBLAS thread count of the BLAS NumPy links, when it can be asked."""
    import numpy

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def source_digest(root: pathlib.Path) -> str:
    """sha256 over ``src/**/*.py`` (path and bytes): identifies the code
    under test even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def before_run() -> dict:
    """Readings taken before the workload starts."""
    share = busy_share()
    return {
        "loadavg_before": list(os.getloadavg()),
        "busy_share_before": share,
        "busy": share is not None and share > BUSY_SHARE,
        "_cpu_times": _cpu_times(),
    }


def collect(root: pathlib.Path, before: dict, seed: int, workload: str) -> dict:
    import numpy

    from repro.kernels import get_backend, get_default_dtype

    before = dict(before)
    _, steal = _shares(before.pop("_cpu_times"), _cpu_times())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **before,
        "loadavg_after": list(os.getloadavg()),
        "steal_share_during": steal,
        "contended": steal is not None and steal > STEAL_SHARE,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend().name,
        "compute_dtype": str(get_default_dtype()),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "argv": sys.argv[1:],
    }
