"""The reachability census (``tools/reach_census.py``) on a small fixture package.

Each test runs real subprocesses under the census hook, as the census does on
``src/repro``: a product run, a test run, and the classification and
allowlist checks built on what they reached.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

FIXTURE = '''\
import threading


def product():
    return 1


def test_only():
    return 2


def unreached():
    return 3


def on_thread():
    return 4


def run_thread():
    worker = threading.Thread(target=on_thread)
    worker.start()
    worker.join()


def outer():
    def inner():
        first = 5
        return first

    value = inner()
    return value


def deco(fn):
    return fn


@deco
def decorated():
    return 6


class Box:
    @property
    def size(self):
        return 7

    @size.setter
    def size(self, value):
        pass


async def waits():
    return 8


def counts(n):
    yield from range(n)


def in_a_spawned_child():
    return 9


def spawn_a_child():
    import multiprocessing

    child = multiprocessing.get_context("spawn").Process(target=in_a_spawned_child)
    child.start()
    child.join()
    return child.exitcode
'''


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "reach_census", REPO_ROOT / "tools" / "reach_census.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("reach_census", module)
    spec.loader.exec_module(module)
    return module


rc = _load_census()


def _python(label, source, code=0):
    return rc.Step(label, [sys.executable, "-c", textwrap.dedent(source)], code=code)


PRODUCT = _python(
    "product",
    """
    from fixturepkg import mod
    mod.product()
    mod.run_thread()
    mod.decorated()
    mod.deco(None)
    mod.Box().size
    """,
)
TESTS = _python("tests", "from fixturepkg import mod; mod.test_only(); mod.outer()")


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "src" / "fixturepkg"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(FIXTURE)
    return root


def _key(name):
    return f"fixturepkg/mod.py::{name}"


#: What PRODUCT does not reach: listing all of them settles the fixture.
NOT_PRODUCT = (
    "test_only",
    "unreached",
    "outer",
    "outer.inner",
    "waits",
    "counts",
    "in_a_spawned_child",
    "spawn_a_child",
)


@pytest.fixture
def classes(package, tmp_path):
    _, classes, _ = rc.census(package, [PRODUCT], [TESTS], {}, tmp_path / "work")
    return classes


class TestClassification:
    def test_product_test_only_and_unreached(self, classes):
        assert classes[_key("product")] == "product"
        assert classes[_key("test_only")] == "test-only"
        assert classes[_key("unreached")] == "unreached"

    def test_a_function_reached_only_on_a_helper_thread_is_reached(self, classes):
        assert classes[_key("run_thread")] == "product"
        assert classes[_key("on_thread")] == "product"

    def test_a_decorated_function_is_keyed_on_its_decorator_line(self, classes, package):
        # Its code object's co_firstlineno is the "@deco" line, not the def.
        decorated = next(f for f in rc.functions(package) if f.name == "decorated")
        assert len(decorated.first_lines) == 2
        assert classes[_key("decorated")] == "product"

    def test_nested_functions_are_classified_on_their_own(self, classes):
        assert classes[_key("outer")] == "test-only"
        assert classes[_key("outer.inner")] == "test-only"

    def test_a_property_getter_and_setter_share_one_key(self, classes):
        # Only the getter ran; the key takes the more reached class.
        assert classes[_key("Box.size")] == "product"

    def test_without_test_runs_everything_unreached_by_product_is_unreached(
        self, package, tmp_path
    ):
        _, classes, _ = rc.census(package, [PRODUCT], [], {}, tmp_path / "work")
        assert classes[_key("test_only")] == "unreached"
        assert classes[_key("product")] == "product"


class TestLineOwnership:
    def test_each_line_counts_once_under_its_innermost_function(self, package):
        lines = {f.qualname: f.lines for f in rc.functions(package)}
        # outer spans 7 lines, 3 of them are inner's.
        assert lines["outer.inner"] == 3
        assert lines["outer"] == 4

    def test_decorator_lines_belong_to_the_decorated_function(self, package):
        lines = {f.qualname: f.lines for f in rc.functions(package)}
        assert lines["decorated"] == 3


class TestAllowlist:
    def test_an_unlisted_unreached_function_fails(self, package, tmp_path):
        _, _, problems = rc.census(package, [PRODUCT], [TESTS], {}, tmp_path / "work")
        assert any(_key("unreached") in p and "not in the allowlist" in p for p in problems)
        assert any(_key("test_only") in p for p in problems)

    def test_listed_functions_pass(self, package, tmp_path):
        listed = {_key(name): "reason" for name in NOT_PRODUCT}
        _, _, problems = rc.census(package, [PRODUCT], [TESTS], listed, tmp_path / "work")
        assert problems == []

    def test_an_entry_for_a_function_that_is_gone_is_stale(self, package, tmp_path):
        listed = {_key(name): "reason" for name in NOT_PRODUCT}
        listed[_key("deleted_long_ago")] = "reason"
        _, _, problems = rc.census(package, [PRODUCT], [TESTS], listed, tmp_path / "work")
        assert problems == [f"stale allowlist entry, no such function: {_key('deleted_long_ago')}"]

    def test_an_entry_a_product_run_now_reaches_is_stale(self, package, tmp_path):
        listed = {_key(name): "reason" for name in NOT_PRODUCT}
        listed[_key("product")] = "reason"
        _, _, problems = rc.census(package, [PRODUCT], [TESTS], listed, tmp_path / "work")
        assert problems == [f"stale allowlist entry, a product run reaches it: {_key('product')}"]

    def test_an_entry_needs_a_reason(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# comment\n\nfixturepkg/mod.py::unreached  # kept for a reason\n")
        assert rc.read_allowlist(path) == {_key("unreached"): "kept for a reason"}
        path.write_text("fixturepkg/mod.py::unreached\n")
        with pytest.raises(ValueError, match="reason"):
            rc.read_allowlist(path)

    def test_the_committed_allowlist_names_functions_that_exist(self):
        keys = {f.key for f in rc.functions(REPO_ROOT / "src" / "repro")}
        listed = rc.read_allowlist(rc.ALLOWLIST)
        assert sorted(set(listed) - keys) == []


class TestRuns:
    def test_a_run_with_an_unexpected_exit_code_fails_the_census(self, package, tmp_path):
        crash = _python("crash", "raise SystemExit(3)")
        with pytest.raises(rc.RunFailed, match="exited 3, expected 0"):
            rc.census(package, [crash], [], {}, tmp_path / "work")

    def test_a_process_that_leaves_by_os_exit_has_logged_what_it_ran(self, package, tmp_path):
        source = "import os; from fixturepkg import mod; mod.product(); os._exit(5)"
        exits = _python("os._exit", source, code=5)
        _, classes, _ = rc.census(package, [exits], [], {}, tmp_path / "work")
        assert classes[_key("product")] == "product"

    def test_a_preparing_step_is_not_counted(self, package, tmp_path):
        prepare = rc.Step(
            "prepare",
            [sys.executable, "-c", "from fixturepkg import mod; mod.unreached()"],
            hooked=False,
        )
        _, classes, _ = rc.census(package, [prepare], [], {}, tmp_path / "work")
        assert classes[_key("unreached")] == "unreached"


class TestWhatCounts:
    def test_a_function_run_only_in_a_spawned_child_process_is_reached(self, package, tmp_path):
        # Ranks of process:N and tcp are spawned children; the hook rides on
        # PYTHONPATH into them.
        source = "from fixturepkg import mod; assert mod.spawn_a_child() == 0"
        step = _python("spawn", f"if __name__ == '__main__':\n    {source}")
        _, classes, _ = rc.census(package, [step], [], {}, tmp_path / "work")
        assert classes[_key("spawn_a_child")] == "product"
        assert classes[_key("in_a_spawned_child")] == "product"

    def test_async_functions_and_generators_are_counted(self, package, tmp_path):
        source = "import asyncio; from fixturepkg import mod; asyncio.run(mod.waits())"
        source += "; list(mod.counts(3))"
        _, classes, _ = rc.census(package, [_python("run", source)], [], {}, tmp_path / "work")
        assert classes[_key("waits")] == "product"
        assert classes[_key("counts")] == "product"

    def test_code_outside_the_package_is_ignored(self, package, tmp_path):
        other = tmp_path / "src" / "elsewhere.py"
        other.write_text("def product():\n    return 1\n")
        source = "import elsewhere; elsewhere.product()"
        _, classes, _ = rc.census(package, [_python("other", source)], [], {}, tmp_path / "work")
        assert classes[_key("product")] == "unreached"
        assert all(key.startswith("fixturepkg/") for key in classes)

    def test_module_level_code_and_class_bodies_are_not_functions(self, package):
        keys = {f.qualname for f in rc.functions(package)}
        assert "Box" not in keys and "threading" not in keys
        assert {"Box.size", "waits", "counts"} <= keys
