"""Environment record printed with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def _blas() -> dict | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return None
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(root: Path) -> dict:
    """Commit, machine, library versions, BLAS build and pinned thread variables.

    threadpoolctl is not available, so the BLAS thread count is read from
    the environment variables pinned before numpy was imported.
    """
    import numpy as np
    import scipy

    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "git_commit": _git_commit(root),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
