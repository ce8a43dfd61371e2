"""Experiment harness: one function per paper table/figure.

Every benchmark under ``benchmarks/`` and every CLI sub-command is a thin
wrapper around a function in this package, so the exact experiment
definitions live in the library (importable, testable) rather than in the
benchmark scripts.  See DESIGN.md for the experiment index (E1-E10).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "config": ["ExperimentScale", "HiggsExperimentConfig", "get_scale"],
        "higgs_pipeline": [
            "HiggsData",
            "prepare_higgs_data",
            "build_higgs_network",
            "train_and_evaluate",
            "repeated_runs",
        ],
        "capacity": ["run_capacity_sweep"],
        "receptive_field": ["run_receptive_field_sweep"],
        "related_work": ["run_related_work_comparison"],
        "insitu": ["run_insitu_experiment"],
        "mnist_fields": ["run_mnist_receptive_fields"],
        "distributed_experiment": ["run_distributed_equivalence"],
        "precision": ["run_precision_ablation"],
    },
)
