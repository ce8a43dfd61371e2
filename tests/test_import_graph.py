"""Package loading: what a process imports, and the surface it still sees.

Every package ``__init__`` is one lazy export table (:func:`repro._lazy.attach`),
so a process loads only the modules it runs.  The import graphs are read in
fresh interpreters (and in a real spawned rank), never in this one, which
has long since imported everything.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.comm import resolve_comm
from tests.comm.rank_modules import loaded_modules

#: What ``import repro.comm.tcp`` may load of ``repro``: the transport, its
#: base class, the exceptions, the fault hooks, the array helpers, and the
#: export-table helper the package ``__init__``s share.
TCP_MODULES = {
    "repro",
    "repro._lazy",
    "repro.comm",
    "repro.comm.base",
    "repro.comm.tcp",
    "repro.exceptions",
    "repro.faults",
    "repro.utils",
    "repro.utils.arrays",
}

#: Never loaded by a process that only talks tcp.
RANK_DENY = ("asyncio", "http.client", "yaml", "repro.serving.server", "repro.hyperopt")
RANK_DENY_PREFIXES = ("repro.experiments", "repro.visualization", "repro.core.network")

#: Never loaded by the CLI before a subcommand runs.
CLI_DENY = ("asyncio", "yaml", "repro.serving.server")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def _denied(modules, names, prefixes=()):
    return sorted(m for m in modules if m in names or m.startswith(prefixes))


def _repro(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


class TestImportGraph:
    def test_import_repro_loads_no_subpackage(self):
        assert _repro(_modules_after("import repro")) == {"repro", "repro._lazy"}

    def test_tcp_transport_loads_only_what_it_runs(self):
        modules = _modules_after("import repro.comm.tcp")
        assert _repro(modules) <= TCP_MODULES
        assert _denied(modules, RANK_DENY, RANK_DENY_PREFIXES) == []

    @pytest.mark.parametrize(
        "command", ["--help", "run", "train", "sweep", "benchmark", "predict", "serve"]
    )
    def test_cli_and_its_help_load_no_subsystem(self, command):
        """``import repro.cli`` plus ``--help`` of the dispatcher or a subcommand."""
        argv = [command] if command == "--help" else [command, "--help"]
        code = (
            "import contextlib, io, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        repro.cli.main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass"
        )
        assert _denied(_modules_after(code), CLI_DENY, ("repro.experiments",)) == []

    def test_submodules_resolve_as_attributes(self):
        modules = _modules_after(
            "import repro\n"
            "from repro import kernels\n"
            "assert repro.kernels is kernels\n"
            "assert repro.core.network.Network is repro.Network"
        )
        assert "repro.core.network" in modules

    def test_spawned_rank_loads_only_the_transport(self):
        """A ``process:2`` rank reports its own ``sys.modules`` from inside
        ``comm.run``; the program's module imports nothing but ``sys``."""
        comm = resolve_comm("process:2")
        try:
            _, rank1 = comm.run(loaded_modules)
        finally:
            comm.close()
        assert _repro(rank1) <= TCP_MODULES
        assert _denied(rank1, RANK_DENY, RANK_DENY_PREFIXES) == []


#: Each package's ``__all__`` when every ``__init__`` imported eagerly.
PUBLIC = {
    "repro": "__version__ backend baselines core datasets engine experiments hyperopt "
    "instrumentation metrics serving visualization BCPNNClassifier BCPNNHyperParameters "
    "InputSpec Network SGDClassifier StructuralPlasticityLayer TrainingSchedule",
    "repro.backend": "Backend KernelStatistics NumpyBackend LowPrecisionBackend posit_round "
    "get_backend list_backends DistributedTrainer split_ranks",
    "repro.baselines": "BaselineClassifier LogisticRegressionBaseline MLPBaseline "
    "DecisionTreeBaseline DecisionStump GradientBoostingBaseline relu relu_grad tanh_act "
    "tanh_grad",
    "repro.checkpoint": "atomic_write_bytes fsync_directory CheckpointManager MAGIC "
    "FORMAT_VERSION MANIFEST_NAME ResumeState TrainingCheckpointer network_from_checkpoint "
    "training_fingerprint",
    "repro.comm": "Communicator SerialComm ThreadComm TCPComm REDUCE_OPS split_ranks "
    "TransportSpec parse_transport_spec get_communicator resolve_comm "
    "transport_capabilities list_transports",
    "repro.config": "ConfigError DatasetSection ModelSection TrainingSection ServingSection "
    "HyperoptSection ExperimentConfig build_config builtin_defaults HAVE_YAML "
    "load_config_file parse_set_overrides deep_merge compose_config compose_from_files "
    "run_experiment run_hyperopt build_prediction_server",
    "repro.core": "BCPNNHyperParameters TrainingSchedule ProbabilityTraces StructuralPlasticity "
    "InputSpec StructuralPlasticityLayer BCPNNClassifier SGDClassifier Network History "
    "TrainingCallback EpochResult save_network load_network",
    "repro.datasets": "Dataset DatasetSplits Batch BatchStream HIGGS_FEATURE_NAMES "
    "HIGGS_LOW_LEVEL HIGGS_HIGH_LEVEL SyntheticHiggsGenerator load_higgs make_higgs_splits "
    "SyntheticDigits load_digits QuantileOneHotEncoder balanced_subsample standardize "
    "train_test_split stratified_kfold register_dataset get_dataset list_datasets SplitSpec "
    "ScenarioSpec register_scenario get_scenario list_scenarios scenario_catalog",
    "repro.engine": "ExecutionPlan LayerEngine LayerWorkspace PipelineTask PipelineWorker "
    "mean_activation_entropy train_layer_pipelined",
    "repro.experiments": "ExperimentScale HiggsExperimentConfig get_scale HiggsData "
    "prepare_higgs_data build_higgs_network train_and_evaluate repeated_runs "
    "run_capacity_sweep run_receptive_field_sweep run_related_work_comparison "
    "run_insitu_experiment run_mnist_receptive_fields run_distributed_equivalence "
    "run_precision_ablation",
    "repro.hyperopt": "SearchSpace FloatParameter LogFloatParameter IntParameter "
    "CategoricalParameter halton_sequence scrambled_halton Trial SearchResult RandomSearch "
    "HaltonSearch EvolutionarySearch SuccessiveHalving ExperimentJournal",
    "repro.instrumentation": "Timer RepeatTimer TimingStatistics BCPNNCostModel CostBreakdown "
    "format_table format_comparison dump_json_report measure_pipelined_training "
    "measure_serving_latency measure_sparse_density_sweep",
    "repro.metrics": "accuracy balanced_accuracy confusion_matrix precision_recall_f1 "
    "classification_report log_loss roc_curve roc_auc rank_auc precision_recall_curve "
    "average_precision ams_score best_ams_threshold calibration_curve "
    "expected_calibration_error brier_score",
    "repro.serving": "BatchResult DeadlineExceededError DispatchError MicroBatcher ModelRunner "
    "PredictionServer QueueFullError RequestSlice ServerThread ServingClosedError "
    "ServingMetrics StreamingPredictor predict_proba_stream predict_stream",
    "repro.utils": "as_rng derive_rng spawn_rngs check_array check_fraction check_positive_int "
    "check_probability_matrix check_one_hot batch_slices one_hot row_softmax "
    "blockwise_softmax moving_average_update stable_log get_logger",
    "repro.visualization": "write_vti ImageDataSpec array_to_pgm ascii_render normalize_to_unit "
    "masks_to_image_grid mask_to_square_image receptive_field_summary CoProcessor "
    "CatalystAdaptor TrainingCurveRecorder",
}


def _packages():
    return ["repro"] + [
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]


def _submodules(package):
    module = importlib.import_module(package)
    return [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    ]


class TestPublicSurface:
    def test_every_package_is_pinned(self):
        assert sorted(_packages()) == sorted(PUBLIC)

    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_all_is_unchanged(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))
        assert set(module.__all__) == set(PUBLIC[package].split())

    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_names_resolve_to_their_defining_objects(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed
            if inspect.ismodule(value):
                assert value is sys.modules[f"{package}.{name}"]
            elif hasattr(value, "__module__") and hasattr(value, "__qualname__"):
                assert getattr(sys.modules[value.__module__], name) is value
            else:
                owners = [sub for sub in _submodules(package) if name in vars(sub)]
                assert owners and all(vars(sub)[name] is value for sub in owners)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro.core import *", namespace)
        assert set(PUBLIC["repro.core"].split()) <= set(namespace)

    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_unknown_names_raise_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
            module.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
