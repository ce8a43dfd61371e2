"""Which ``src/`` functions a product entry point reaches: the reachability census.

Every function under ``src/repro`` is either reached by a product run (the
CLI commands, the examples and example configs, the e2e workloads, the paper
benchmarks), or listed in ``tools/reach_allowlist.txt`` with a one-line reason
naming its user or its ROADMAP item.  The census checks that:

    python tools/reach_census.py            # product runs only
    python tools/reach_census.py --tests    # also tier-1: test-only vs unreached

It exits 1 on a function that is neither reached nor listed, on a stale
allowlist entry (its function is gone, or a product run now reaches it) and
on a product run that exits with an unexpected code.

How it counts.  A ``sitecustomize`` module put first on ``PYTHONPATH``
installs ``sys.setprofile`` and ``threading.setprofile`` in every Python
process a run starts (spawned ranks, tcp workers and helper threads
included).  It appends each ``src/`` code object to a per-process log on
its first call, one ``os.write`` each, so a process that leaves by
``os._exit`` has logged what it ran.  An AST walk of ``src/repro`` gives the
denominator.  A function is keyed on its file, its name, its ``def`` line
and its first decorator line (a decorated function's ``co_firstlineno`` is
the decorator's).  Each line is counted once, under its innermost function;
module-level code and class bodies are not counted.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "reach_allowlist.txt"
CLASSES = ("product", "test-only", "unreached")

HOOK = '''\
import os
import sys
import threading

_PREFIX = {prefix!r}
_fd = os.open(
    os.path.join({out!r}, "%d-%d.log" % (os.getpid(), id(os))),
    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
    0o644,
)
_seen = set()
_keep = []  # a kept code object is never freed, so no later one reuses its id


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen.add(id(code))
    _keep.append(code)
    if code.co_filename.startswith(_PREFIX):
        line = "%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name)
        os.write(_fd, line.encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


# ------------------------------------------------------------ denominator
@dataclass
class Function:
    """One ``def`` under the package root, with the lines it owns."""

    path: str  # relative to the package's parent, e.g. "repro/cli.py"
    qualname: str  # "Class.method", "outer.inner"
    name: str
    first_lines: Tuple[int, ...]  # the def line, and the first decorator line if any
    lines: int = 0  # its span minus its nested functions' spans

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def functions(package: Path) -> List[Function]:
    """Every function of every module under the package directory ``package``."""
    found: List[Function] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        _walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), rel, "", found)
    return found


def _walk(node: ast.AST, rel: str, prefix: str, found: List[Function]) -> Set[int]:
    """Collect the functions below ``node``; return the lines they span."""
    spanned: Set[int] = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([child.lineno] + [d.lineno for d in child.decorator_list])
            span = set(range(start, child.end_lineno + 1))
            firsts = tuple(sorted({start, child.lineno}))
            fn = Function(rel, prefix + child.name, child.name, firsts)
            found.append(fn)
            fn.lines = len(span - _walk(child, rel, fn.qualname + ".", found))
            spanned |= span
        else:
            inner = prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix
            spanned |= _walk(child, rel, inner, found)
    return spanned


# -------------------------------------------------------------------- runs
@dataclass
class Step:
    """One command of a census run, run in the run's scratch directory.

    ``hooked=False`` marks a command that only prepares inputs (a CSV, a
    corrupted checkpoint): what it calls is not counted as reached.
    """

    label: str
    argv: Sequence[str]
    code: Optional[int] = 0  # the exit code it must end with; None takes any
    env: Dict[str, str] = field(default_factory=dict)
    hooked: bool = True


#: A callable entry drives what one command cannot (a live server); it gets
#: the scratch directory and the hooked environment and raises on failure.
Entry = Union[Step, Callable[[Path, Dict[str, str]], None]]


class RunFailed(RuntimeError):
    """A census run exited with a code it was not expected to."""


def environment(*paths: Path) -> Dict[str, str]:
    """This process's environment with ``paths`` first on ``PYTHONPATH``."""
    tail = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(p) for p in paths] + tail))


def run_entries(entries: Sequence[Entry], src: Path, log_dir: Path, work: Path) -> None:
    """Run ``entries`` in ``work``, every counted process logging to ``log_dir``."""
    hook_dir = log_dir / "hook"
    hook_dir.mkdir(parents=True)
    prefix = str(src.resolve()) + os.sep
    (hook_dir / "sitecustomize.py").write_text(HOOK.format(prefix=prefix, out=str(log_dir)))
    # TMPDIR too: an example that writes to the temp directory writes here.
    env = dict(environment(hook_dir, src), TMPDIR=str(work))
    plain = dict(environment(src), TMPDIR=str(work))
    for entry in entries:
        started = time.monotonic()
        if isinstance(entry, Step):
            label = entry.label
            done = subprocess.run(
                list(entry.argv),
                cwd=work,
                env=dict(env if entry.hooked else plain, **entry.env),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            if entry.code is not None and done.returncode != entry.code:
                raise RunFailed(
                    f"{label!r} exited {done.returncode}, expected {entry.code}:\n"
                    + done.stderr[-2000:]
                )
        else:
            label = entry.__name__
            entry(work, env)
        print(f"  {time.monotonic() - started:6.1f} s  {label}", flush=True)


def reached(log_dir: Path, src: Path) -> Set[Tuple[str, int, str]]:
    """``(path, first line, name)`` of every code object the logs name."""
    root = src.resolve()
    keys: Set[Tuple[str, int, str]] = set()
    for log in log_dir.glob("*.log"):
        for line in log.read_text().splitlines():
            filename, first, name = line.split("\t")
            path = Path(filename).resolve()
            if root in path.parents:
                keys.add((path.relative_to(root).as_posix(), int(first), name))
    return keys


def classify(
    funcs: Sequence[Function], product: Set[Tuple[str, int, str]], tests: Set[Tuple[str, int, str]]
) -> Dict[str, str]:
    """``key -> "product" | "test-only" | "unreached"`` for every function."""
    rank: Dict[str, int] = {}
    for fn in funcs:
        ids = {(fn.path, line, fn.name) for line in fn.first_lines}
        kind = 0 if ids & product else 1 if ids & tests else 2
        # Two defs under one name (a property's getter and setter) share a
        # key, which takes the class of the more reached one.
        rank[fn.key] = min(rank.get(fn.key, 2), kind)
    return {key: CLASSES[kind] for key, kind in rank.items()}


# --------------------------------------------------------------- allowlist
def read_allowlist(path: Path) -> Dict[str, str]:
    """``key -> reason`` from ``path::qualname  # reason`` lines."""
    entries: Dict[str, str] = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition("#")
        if not reason.strip() or "::" not in key:
            raise ValueError(f"{path}:{number}: expected 'path::qualname  # reason', got {raw!r}")
        entries[key.strip()] = reason.strip()
    return entries


def problems(classes: Dict[str, str], allowlist: Dict[str, str]) -> List[str]:
    """What fails the census: unlisted non-product functions and stale entries."""
    out = [
        f"{kind}, not in the allowlist: {key}"
        for key, kind in classes.items()
        if kind != "product" and key not in allowlist
    ]
    for key in allowlist:
        if key not in classes:
            out.append(f"stale allowlist entry, no such function: {key}")
        elif classes[key] == "product":
            out.append(f"stale allowlist entry, a product run reaches it: {key}")
    return out


def census(
    package: Path,
    product_entries: Sequence[Entry],
    test_entries: Sequence[Entry],
    allowlist: Dict[str, str],
    work: Path,
) -> Tuple[List[Function], Dict[str, str], List[str]]:
    """Run the entries and settle every function of ``package``.

    Returns the functions, their classes and the problems; without test
    entries every function no product run reaches reads ``unreached``.
    """
    src = package.parent
    reach = {}
    for name, entries in (("product", product_entries), ("tests", test_entries)):
        logs = work / f"logs-{name}"
        (work / name).mkdir(parents=True)
        run_entries(entries, src, logs, work / name)
        reach[name] = reached(logs, src)
    funcs = functions(package)
    classes = classify(funcs, reach["product"], reach["tests"])
    return funcs, classes, problems(classes, allowlist)


# ------------------------------------------------------- the repo's runs
TRAIN = ("--events", "4000", "--epochs", "2", "--mcus", "50", "--quiet")
SMALL = ("--events", "1000", "--epochs", "2", "--mcus", "10", "--seed", "0", "--quiet")
HEAD = ("--events", "1200", "--epochs", "1", "--mcus", "20")
KILL = {"REPRO_FAULTS": "driver.kill@epoch=1"}
CRASH = {"REPRO_FAULTS": "worker.crash@rank=1,epoch=1,batch=2"}
DELAY = {"REPRO_FAULTS": "tcp.delay@p=0.5,seconds=0.001"}
CORRUPT_READ = {"REPRO_FAULTS": "checkpoint.corrupt_read"}
BENCH = ("--batch", "128", "--inputs", "80", "--mcus", "30", "--hcus", "2", "--repeats", "3")
SWEEPS = ("capacity", "receptive-field", "related-work", "precision", "distributed")

#: Inputs the runs read: 4 000 encoded rows (a predict of more than one
#: batch), 300 as CSV, an 800-event file in the real-HIGGS layout, and one
#: sweep config per hyperopt algorithm over every parameter type.
_INPUTS = """
import json
import numpy as np
from repro.datasets.higgs import SyntheticHiggsGenerator
from repro.experiments.higgs_pipeline import prepare_higgs_data
data = prepare_higgs_data(n_events=8000)
np.savez("features.npz", x=data.x_test[:4000])
np.savetxt("features.csv", data.x_test[:300], delimiter=",", fmt="%d")
events = SyntheticHiggsGenerator(seed=0).sample(800)
np.savetxt("small-higgs.csv", np.column_stack([events.labels, events.features]), delimiter=",")
space = {
    "model.density": {"type": "float", "low": 0.1, "high": 0.6},
    "model.taupdt": {"type": "logfloat", "low": 0.005, "high": 0.1},
    "model.head": {"type": "categorical", "choices": ["sgd", "bcpnn"]},
}
for algorithm, extra in (("halton", {}), ("evolution", {}),
                         ("random", {"journal": "journal.jsonl", "resume": True})):
    hyperopt = dict(enabled=True, algorithm=algorithm, trials=5, space=space, **extra)
    config = {"dataset": {"n_events": 800}, "hyperopt": hyperopt,
              "training": {"hidden_epochs": 1, "classifier_epochs": 1}}
    json.dump(config, open(f"sweep-{algorithm}.json", "w"))
"""

_CORRUPT = """
import json
from pathlib import Path
latest = Path("ckpt") / json.loads(Path("ckpt/MANIFEST.json").read_text())["latest"]
blob = bytearray(latest.read_bytes())
blob[len(blob) // 2] ^= 0xFF
latest.write_bytes(bytes(blob))
"""

_SCENARIOS = "from repro.datasets.registry import list_scenarios; print(*list_scenarios())"

PAPER_BENCHMARKS = (
    "bench_fig1_mnist_fields.py",
    "bench_fig2_insitu.py",
    "bench_fig3_capacity.py",
    "bench_fig4_receptive_field.py",
    "bench_fig5_mask_evolution.py",
    "bench_table_related_work.py",
    "bench_precision.py",
    "bench_cost_model.py",
)


def _cli(*args: str, code: int = 0, env: Optional[Dict[str, str]] = None) -> Step:
    argv = [sys.executable, "-m", "repro.cli", *args]
    return Step("repro " + " ".join(args), argv, code, env or {})


def _script(path: str, *args: str) -> Step:
    return Step(" ".join((path,) + args), [sys.executable, str(REPO / path), *args])


def _prepare(label: str, source: str) -> Step:
    return Step(label, [sys.executable, "-c", source], hooked=False)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def serve(work: Path, env: Dict[str, str]) -> None:
    """``repro serve`` on the tcp-trained model, the docs session, then SIGINT."""
    port = str(_free_port())
    argv = [sys.executable, "-m", "repro.cli", "serve", "--model", "model.npz", "--port", port]
    server = subprocess.Popen(argv + ["--quiet"], cwd=work, env=env)
    try:
        smoke = [sys.executable, str(REPO / "tools" / "serve_smoke.py"), "--model", "model.npz"]
        smoke += ["--url", f"http://127.0.0.1:{port}"]
        code = subprocess.run(smoke, cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
        if code != 0:
            raise RunFailed(f"serve_smoke.py exited {code}")
    finally:
        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=60)
    if code != 0:
        raise RunFailed(f"repro serve exited {code} on SIGINT")


def tcp_worker(work: Path, env: Dict[str, str]) -> None:
    """A ``spawn=0`` tcp training joined by ``python -m repro.comm.tcp``."""
    address = f"127.0.0.1:{_free_port()}"
    spec = f"tcp://{address}?ranks=2&spawn=0&timeout=60"
    argv = [sys.executable, "-m", "repro.cli", "train", "--comm", spec, *SMALL]
    driver = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL)
    try:
        join = [sys.executable, "-m", "repro.comm.tcp", "--connect", address]
        deadline = time.monotonic() + 60
        while True:  # the driver may not be listening yet
            code = subprocess.run(join, cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
            if code == 0 or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        if code != 0:
            raise RunFailed(f"python -m repro.comm.tcp exited {code}")
    finally:
        if driver.wait(timeout=120) != 0:
            raise RunFailed(f"the spawn=0 tcp training exited {driver.returncode}")


def repo_product_entries(scenarios: Sequence[str]) -> List[Entry]:
    """ci.yml's product commands, plus one run per enumerated choice."""
    configs = sorted((REPO / "examples" / "configs").glob("*.yaml"))
    scripts = sorted((REPO / "examples").glob("*.py"))
    benches = [str(REPO / "benchmarks" / name) for name in PAPER_BENCHMARKS]
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    entries: List[Entry] = [
        _script("benchmarks/e2e/run.py", "--seed", "1", "--quick"),
        Step("paper benchmarks", pytest + ["--benchmark-disable"] + benches),
        _script("examples/distributed_training.py", "--transport", "tcp"),
    ]
    for script in scripts:
        # the in-situ example writes into the directory it is given
        args = ["out"] if "insitu" in script.name else []
        entries.append(_script(f"examples/{script.name}", *args))
    entries += [_cli("run", str(config), "--quick", "--quiet") for config in configs]
    entries += [_cli("run", "--scenario", name, "--quick", "--quiet") for name in scenarios]
    entries += [
        # error paths exit 2 with a pathed message; --comm help prints the table
        _cli("run", "--quick", "--quiet", "--set", "training.comn=thread", code=2),
        _cli("run", "--quick", "--quiet", "--set", "model.n_hypercolumns=abc", code=2),
        _cli("train", "--density", "1.5", "--events", "600", "--quiet", code=2),
        _cli("train", "--comm", "help"),
        _cli("run", "--list-scenarios"),
        # progress logging and the JSON report (every other run is --quiet)
        _cli("train", *HEAD, "--json", "t.json"),
        # ci.yml's training smokes, a delayed link and a remote worker
        _cli("train", *TRAIN, "--comm", "process:2"),
        _cli("train", *TRAIN, "--comm", "process:2", "--pipeline", "--weight-refresh-tol", "0.02"),
        _cli("train", *TRAIN, "--comm", "process:2", "--density", "0.3"),
        _cli("train", *TRAIN, "--comm", "thread:2", "--save-model", "thread.npz"),
        _cli("train", *TRAIN, "--comm", "tcp?ranks=3", "--save-model", "model.npz"),
        _cli("train", *TRAIN, "--comm", "tcp?ranks=3&timeout=15", env=CRASH),
        _cli("train", *SMALL, "--comm", "tcp?ranks=2", env=DELAY),
        tcp_worker,
        # kill at an epoch boundary then resume, serial and thread:2; corrupt resumes
        _cli("train", *SMALL, "--checkpoint-dir", "ckpt", code=23, env=KILL),
        _cli("train", *SMALL, "--checkpoint-dir", "ckpt", "--resume"),
        _cli("train", *SMALL, "--comm", "thread:2", "--checkpoint-dir", "t", code=23, env=KILL),
        _cli("train", *SMALL, "--comm", "thread:2", "--checkpoint-dir", "t", "--resume"),
        _cli("train", *SMALL, "--checkpoint-dir", "ckpt", "--resume", code=2, env=CORRUPT_READ),
        _prepare("corrupt the latest checkpoint", _CORRUPT),
        _cli("train", *SMALL, "--checkpoint-dir", "ckpt", "--resume", code=2),
        # every model.head and hyperopt.algorithm, a real-HIGGS CSV, the journal resume
        _prepare("write the inputs", _INPUTS),
        _cli("train", *HEAD, "--head", "bcpnn", "--save-model", "bcpnn.npz", "--quiet"),
        _cli("train", "--higgs-path", "small-higgs.csv", "--events", "600", "--quiet"),
        _cli("run", "sweep-halton.json", "--quiet"),
        _cli("run", "sweep-evolution.json", "--quiet"),
        _cli("run", "sweep-random.json", "--quiet"),
        _cli("run", "sweep-random.json", "--quiet", "--set", "hyperopt.trials=8"),
        # bulk inference over more than one batch, CSV in and out, another backend
        _cli("predict", "features.npz", "--model", "model.npz", "--batch-size", "256", "--quiet"),
        _cli("predict", "features.csv", "--model", "bcpnn.npz", "--proba", "--output", "p.csv"),
        _cli("predict", "features.csv", "--model", "model.npz", "--backend", "float32", "--quiet"),
        serve,
        _cli("benchmark", *BENCH, "--comm", "thread:2", "--quiet"),
    ]
    return entries + [_cli("sweep", name, "--quiet") for name in SWEEPS]


def repo_test_entries() -> List[Entry]:
    """Tier-1, run from the repository root (its ``pytest.ini`` and ``tests/``)."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(REPO / "tests")]
    argv += ["--rootdir", str(REPO), "-c", str(REPO / "pytest.ini")]
    return [Step("tier-1", argv, code=None)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tests", action="store_true", help="also run tier-1, to tell test-only from unreached"
    )
    args = parser.parse_args(argv)
    package = REPO / "src" / "repro"
    listing = [sys.executable, "-c", _SCENARIOS]
    scenarios = subprocess.check_output(listing, env=environment(package.parent), text=True)
    allowlist = read_allowlist(ALLOWLIST)
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        print("product runs:")
        tests = repo_test_entries() if args.tests else []
        try:
            funcs, classes, found = census(
                package, repo_product_entries(scenarios.split()), tests, allowlist, Path(tmp)
            )
        except RunFailed as exc:
            print(f"reach census: {exc}", file=sys.stderr)
            return 1
    lines = {}
    for fn in funcs:
        lines[fn.key] = lines.get(fn.key, 0) + fn.lines
    print()
    for key in sorted(classes):
        if classes[key] != "product":
            listed = "allowlisted" if key in allowlist else "NOT LISTED"
            print(f"{classes[key]:>10}  {lines[key]:4d} lines  {key}  [{listed}]")
    print()
    for kind in CLASSES:
        keys = [k for k, v in classes.items() if v == kind]
        print(f"{kind:>10}: {len(keys):4d} functions, {sum(lines[k] for k in keys):6d} lines")
    for problem in found:
        print(f"reach census: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
