"""Gate on what ``fit`` adds to the process's peak resident memory.

    python tools/check_fit_memory.py CONFIG.yaml --max-ratio R

runs ``compose_config -> prepare -> train_and_evaluate`` for a ``repro run``
config three times in one fresh subprocess, keeping the previous result alive
during the next fit (as ``benchmarks/e2e``, ``repeated_runs`` and every sweep
do), and fails when ``ru_maxrss`` grew by more than ``R x N_train*H*8`` bytes
over its value after setup — ``H`` being the last hidden layer's width, so
``N_train*H*8`` is the one matrix ``fit`` is allowed to hold (docs/training.md,
"Memory model of ``fit``").

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


def _maxrss_bytes() -> int:
    scale = 1 if sys.platform == "darwin" else 1024  # Linux reports kilobytes
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def measure(config_path: str) -> dict:
    """Run the fits in this process; ``{"baseline", "peak", "matrix"}`` in bytes."""
    from repro.config.loader import compose_config, load_config_file
    from repro.datasets.registry import get_scenario
    from repro.experiments.config import HiggsExperimentConfig
    from repro.experiments.higgs_pipeline import train_and_evaluate

    config = compose_config(load_config_file(config_path))
    data = get_scenario(config.dataset.scenario).prepare(config.dataset, seed=config.dataset_seed)
    experiment = HiggsExperimentConfig.from_schema(config).replace(checkpoint_dir=None)
    baseline = _maxrss_bytes()
    for _ in range(FITS):
        result = train_and_evaluate(experiment, data=data)  # rebinding frees the old one after
    hidden_width = result["network"].hidden_layers[-1].n_hidden_units
    return {
        "baseline": baseline,
        "peak": _maxrss_bytes(),
        "matrix": int(data.x_train.shape[0]) * hidden_width * 8,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="a `repro run` config file (read only)")
    parser.add_argument("--max-ratio", type=float, required=True, metavar="R")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.config)))
        return 0
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, __file__, args.config, "--max-ratio", str(args.max_ratio), "--child"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    sizes = json.loads(child.stdout.splitlines()[-1])
    growth = sizes["peak"] - sizes["baseline"]
    ratio = growth / sizes["matrix"]
    print(
        f"{args.config}: {FITS} fits grew ru_maxrss by {growth / 1e6:.1f} MB over the "
        f"{sizes['baseline'] / 1e6:.1f} MB after setup = {ratio:.2f} x N_train*H*8 "
        f"({sizes['matrix'] / 1e6:.1f} MB); limit {args.max_ratio:.2f}"
    )
    return 0 if ratio <= args.max_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
