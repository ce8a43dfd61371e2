"""Every shipped example config and every registered scenario runs through ``repro run``.

The reachability census runs the same commands as product runs and checks
only their exit codes; here they run in-process and their output is checked.
"""

from pathlib import Path

import pytest

from repro.cli import main_run
from repro.config import HAVE_YAML
from repro.datasets.registry import get_scenario, list_scenarios

CONFIGS = sorted((Path(__file__).resolve().parents[2] / "examples" / "configs").glob("*.yaml"))


@pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")
@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_example_config_runs_at_quick_size(path, capsys):
    assert main_run([str(path), "--quick", "--quiet"]) == 0
    [line] = capsys.readouterr().out.splitlines()[-1:]
    assert line.startswith("[")
    assert "hyperopt(" in line or "auc=" in line


@pytest.mark.parametrize("name", list_scenarios())
def test_every_scenario_runs_without_a_config_file(name, capsys):
    assert main_run(["--scenario", name, "--quick", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert f"[{get_scenario(name).name}] accuracy=" in out
