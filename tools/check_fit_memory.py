"""Gate on what ``fit`` adds to the process's peak resident memory, and on the total.

    python tools/check_fit_memory.py CONFIG.yaml [--max-ratio R] [--max-total-mb M]

runs ``compose_config -> prepare -> resolve_comm -> train_and_evaluate`` for a
``repro run`` config three times in one fresh subprocess, keeping the previous
result alive during the next fit (as ``benchmarks/e2e``, ``repeated_runs`` and
every sweep do), and fails when

* ``ru_maxrss`` grew by more than ``R x N_train*H*8`` bytes over its value
  after setup — ``H`` being the last hidden layer's width, so ``N_train*H*8``
  is the one matrix ``fit`` is allowed to hold (docs/training.md, "Memory
  model of ``fit``");
* the driver's ``ru_maxrss`` **plus** the largest worker rank's
  (``RUSAGE_CHILDREN`` after ``comm.close()``; zero without ``training.comm``)
  exceeds ``M`` MB — the sum ``benchmarks/e2e`` reports as ``peak_rss_mb``
  up to its predict and serve stages, and where a float64 copy of the encoded
  dataset (in setup, in ``fit``, in the broadcast or on a rank) shows.

The child runs on a heap that never trims or mmaps (the allocator settings
``benchmarks/e2e/hostenv.py`` pins): that is the configuration in which
anything a fitted network retains shows up as heap growth on the next fit, so
it is the one worth gating.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FITS = 3
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(16 * 1024**3),
}


def _maxrss_bytes(who: int = resource.RUSAGE_SELF) -> int:
    scale = 1 if sys.platform == "darwin" else 1024  # Linux reports kilobytes
    return resource.getrusage(who).ru_maxrss * scale


def measure(config_path: str) -> dict:
    """Run the fits in this process; ``{"baseline", "peak", "ranks", "matrix"}`` in bytes."""
    from repro.comm.factory import resolve_comm
    from repro.config.loader import compose_config, load_config_file
    from repro.datasets.registry import get_scenario
    from repro.experiments.config import HiggsExperimentConfig
    from repro.experiments.higgs_pipeline import train_and_evaluate

    config = compose_config(load_config_file(config_path))
    data = get_scenario(config.dataset.scenario).prepare(config.dataset, seed=config.dataset_seed)
    experiment = HiggsExperimentConfig.from_schema(config).replace(checkpoint_dir=None)
    comm = resolve_comm(config.training.comm, config.training.ranks)
    baseline = _maxrss_bytes()
    try:
        for _ in range(FITS):
            # Rebinding frees the previous result only after the next fit.
            result = train_and_evaluate(experiment, data=data, comm=comm)
    finally:
        if comm is not None:
            comm.close()  # reaps the worker ranks: RUSAGE_CHILDREN has them now
    hidden_width = result["network"].hidden_layers[-1].n_hidden_units
    return {
        "baseline": baseline,
        "peak": _maxrss_bytes(),
        "ranks": _maxrss_bytes(resource.RUSAGE_CHILDREN) if comm is not None else 0,
        "matrix": int(data.x_train.shape[0]) * hidden_width * 8,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="a `repro run` config file (read only)")
    parser.add_argument("--max-ratio", type=float, metavar="R")
    parser.add_argument("--max-total-mb", type=float, metavar="M")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.config)))
        return 0
    if args.max_ratio is None and args.max_total_mb is None:
        parser.error("give --max-ratio, --max-total-mb or both")
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, __file__, args.config, "--child"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    sizes = json.loads(child.stdout.splitlines()[-1])
    growth = sizes["peak"] - sizes["baseline"]
    ratio = growth / sizes["matrix"]
    total_mb = (sizes["peak"] + sizes["ranks"]) / 1e6
    print(
        f"{args.config}: {FITS} fits grew ru_maxrss by {growth / 1e6:.1f} MB over the "
        f"{sizes['baseline'] / 1e6:.1f} MB after setup = {ratio:.2f} x N_train*H*8 "
        f"({sizes['matrix'] / 1e6:.1f} MB), limit {args.max_ratio}; driver "
        f"{sizes['peak'] / 1e6:.1f} MB + largest rank {sizes['ranks'] / 1e6:.1f} MB = "
        f"{total_mb:.1f} MB, limit {args.max_total_mb}"
    )
    within_ratio = args.max_ratio is None or ratio <= args.max_ratio
    within_total = args.max_total_mb is None or total_mb <= args.max_total_mb
    return 0 if within_ratio and within_total else 1


if __name__ == "__main__":
    sys.exit(main())
