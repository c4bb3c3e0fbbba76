"""Host facts and provenance recorded with every benchmark result.

``machine_facts`` reads the CPU and the source tree from the parent
process.  ``library_facts`` runs in a child started with the same
environment as the CLI commands (``python3 perfbench/host.py`` prints it as
JSON), so it reports the numpy, scipy and OpenBLAS the commands load and
the BLAS thread count they get.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs since boot, or None without /proc/stat.

    The share of steal between two readings is the time the hypervisor
    gave this guest's CPUs to others: the main source of run-to-run noise
    on a shared host.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def machine_facts(root):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "git_commit": _git_commit(root),
    }


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it is not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def library_facts():
    import numpy
    import scipy
    from numpy import __config__ as numpy_config

    blas = numpy_config.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }


if __name__ == "__main__":
    print(json.dumps(library_facts()))
