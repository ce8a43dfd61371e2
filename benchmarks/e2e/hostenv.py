"""Pinned process environment and host facts for the e2e benchmark.

The pins are applied to the *environment of the workload subprocess* (and so
inherited by its rank children and the load generator) before any of them
imports numpy:

* ``*_NUM_THREADS=1`` — ``serial`` is one core and two ranks are two cores on
  the 2-core box, and OpenBLAS spin-waits stop amplifying neighbour noise.
* ``NUMPY_MADVISE_HUGEPAGE=0`` — numpy otherwise asks for transparent huge
  pages on every large array; on this VM each 2 MB fault then runs direct
  compaction (~1.4 ms), so a cold ``Network.fit`` spent 10–12 s of its 15–18 s
  in the kernel and the *same* ``Network.transform`` call took 0.25 s or 3.5 s.
  With 4 KB pages the same fit is 3.7 s with 0.16 s of system time.
* ``MALLOC_MMAP_MAX_=0`` / ``MALLOC_TRIM_THRESHOLD_`` — glibc serves the
  100 MB+ temporaries of a full-matrix forward from a retained heap instead of
  a fresh ``mmap`` (and a fresh round of page faults) per call: 3x fewer faults
  and a third less time in a numpy-only loop (see README, "Noise").
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Dict, Mapping

PINNED_ENV: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(16 * 1024**3),
}

#: A run started above this 1-minute load average is marked, not failed.
NOISY_LOAD_AVERAGE = 1.0

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


def pinned_environment(base: Mapping[str, str]) -> Dict[str, str]:
    """``base`` with the pins applied and ``src/`` first on ``PYTHONPATH``."""
    env = dict(base)
    env.update(PINNED_ENV)
    tail = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + tail if tail else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(numpy_module) -> str:
    try:
        config = numpy_module.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'blas')} {blas.get('version', 'unknown')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def host_facts(load_average_at_start: float) -> Dict[str, object]:
    """What a reader needs to judge a result: cores, CPU, load, versions, pins.

    Called inside the workload subprocess, after numpy is imported under the
    pinned environment, so the recorded pins are the ones in force.
    """
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "load_average_1min": float(load_average_at_start),
        "noisy_host": bool(load_average_at_start > NOISY_LOAD_AVERAGE),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_version(numpy),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def load_average() -> float:
    try:
        return float(os.getloadavg()[0])
    except OSError:
        return 0.0
