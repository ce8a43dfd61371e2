"""Deterministic, seed-driven fault injection.

Robustness claims need to be *tested*, not asserted: this module is the one
registry every crash/corruption hook in the codebase consults, so a test (or
the CI chaos job) can inject worker crashes, driver kills, checkpoint I/O
failures and flaky TCP links from one declarative spec — deterministically,
so a failing chaos run replays exactly.

Activation
----------
A :class:`FaultPlan` is installed either explicitly (tests call
:func:`install_plan`) or from the environment: ``REPRO_FAULTS`` holds the
spec, ``REPRO_FAULTS_SEED`` the seed of the plan's RNG (used by
probabilistic rules and byte corruption).  Environment activation is what
the CLI chaos paths use — a subprocess under test inherits the variables and
its faults fire without any code changes.

Spec grammar
------------
``site[@key=value[,key=value...]][;site2...]`` — for example::

    driver.kill@epoch=2
    worker.crash@rank=1,epoch=0,batch=3
    checkpoint.fsync@count=1;tcp.delay@p=0.2,seconds=0.01

Matching keys (``rank``, ``epoch``, ``batch``, ``step`` ...) are compared as
integers against the context the call site passes to :func:`fault_point`;
a rule only fires when every matching key it names is present and equal.
Reserved keys configure behaviour instead of matching: ``count`` (how many
times the rule may fire; default 1, or unlimited for probabilistic rules),
``p`` (fire with this probability per eligible call), ``mode``
(``exit``/``raise`` for the kill sites) and ``seconds`` (delay duration).

Sites wired through the codebase:

=========================  ====================================================
``driver.kill``            kill the driver at a training epoch boundary
                           (``mode=exit`` hard-exits — the chaos-job default —
                           ``mode=raise`` raises :class:`FaultInjected`)
``worker.crash``           kill a worker rank at a global batch (needs
                           ``rank``, ``epoch`` and ``batch``)
``checkpoint.fsync``       fail the fsync during an atomic checkpoint write
``checkpoint.short_write`` truncate the temp-file write partway through
``checkpoint.corrupt_read`` flip bytes while reading a checkpoint back
``tcp.delay``              sleep before sending a TCP frame
``tcp.drop``               silently drop an outgoing TCP frame
=========================  ====================================================
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, FaultInjected

__all__ = [
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "install_plan",
    "active_plan",
    "parse_spec",
    "kill_driver",
    "crash_injection_from_plan",
]

ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

#: Keys that configure rule behaviour rather than matching the context.
_BEHAVIOUR_KEYS = frozenset({"count", "p", "mode", "seconds"})

#: Exit code used by ``mode=exit`` kills, distinct from normal failures so
#: chaos tests can assert the process died from the injected fault.
KILL_EXIT_CODE = 23


class FaultRule:
    """One parsed ``site@k=v,...`` rule with a remaining-fire budget."""

    __slots__ = ("site", "params", "remaining")

    def __init__(self, site: str, params: Dict[str, str]) -> None:
        self.site = site
        self.params = dict(params)
        if "count" in params:
            self.remaining: Optional[int] = int(params["count"])
        elif "p" in params:
            self.remaining = None  # probabilistic rules fire until removed
        else:
            self.remaining = 1

    def matches(self, context: Dict[str, object]) -> bool:
        for key, value in self.params.items():
            if key in _BEHAVIOUR_KEYS:
                continue
            if key not in context:
                return False
            try:
                if int(context[key]) != int(value):
                    return False
            except (TypeError, ValueError):
                if str(context[key]) != str(value):
                    return False
        return True

    def param_float(self, key: str, default: float) -> float:
        return float(self.params.get(key, default))

    def param_str(self, key: str, default: str) -> str:
        return str(self.params.get(key, default))


def parse_spec(spec: str) -> List[FaultRule]:
    """Parse a ``site@k=v,...;site2...`` spec string into rules."""
    rules: List[FaultRule] = []
    for part in str(spec).split(";"):
        part = part.strip()
        if not part:
            continue
        site, _, tail = part.partition("@")
        site = site.strip()
        if not site:
            raise ConfigurationError(f"fault rule has no site: {part!r}")
        params: Dict[str, str] = {}
        if tail:
            for pair in tail.split(","):
                key, sep, value = pair.partition("=")
                if not sep or not key.strip():
                    raise ConfigurationError(
                        f"fault parameter must be key=value, got {pair!r} in {part!r}"
                    )
                params[key.strip()] = value.strip()
        rules.append(FaultRule(site, params))
    return rules


class FaultPlan:
    """A deterministic set of fault rules sharing one seeded RNG."""

    def __init__(self, spec: str = "", seed: int = 0) -> None:
        self.spec = str(spec)
        self.seed = int(seed)
        self.rules = parse_spec(self.spec)
        self.rng = np.random.default_rng(self.seed)
        self.fired: List[Dict[str, object]] = []

    def match(self, site: str, context: Dict[str, object]) -> Optional[FaultRule]:
        """The first armed rule for ``site`` matching ``context`` (consumed)."""
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.remaining is not None and rule.remaining <= 0:
                continue
            if not rule.matches(context):
                continue
            if "p" in rule.params and self.rng.random() >= float(rule.params["p"]):
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            self.fired.append({"site": site, **context})
            return rule
        return None

    def corrupt(self, data: bytes, n_bytes: int = 8) -> bytes:
        """Deterministically flip ``n_bytes`` bytes of ``data``."""
        if not data:
            return data
        buf = bytearray(data)
        positions = self.rng.integers(0, len(buf), size=min(n_bytes, len(buf)))
        for pos in positions:
            buf[int(pos)] ^= 0xFF
        return bytes(buf)


# The module-level active plan.  ``_loaded`` distinguishes "not yet read
# from the environment" from "explicitly installed (possibly None)".
_plan: Optional[FaultPlan] = None
_loaded = False


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide fault plan."""
    global _plan, _loaded
    _plan = plan
    _loaded = True


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily initialised from ``REPRO_FAULTS``."""
    global _plan, _loaded
    if not _loaded:
        spec = os.environ.get(ENV_SPEC, "").strip()
        seed = int(os.environ.get(ENV_SEED, "0") or 0)
        _plan = FaultPlan(spec, seed=seed) if spec else None
        _loaded = True
    return _plan


def fault_point(site: str, **context) -> Optional[FaultRule]:
    """Consult the active plan at an instrumented site (fast no-op path).

    Returns the matched (and consumed) rule, or ``None``.  The call site
    decides what the fault *means* — raise, exit, sleep, corrupt — so this
    function never has side effects of its own.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.match(site, context)


def kill_driver(rule: FaultRule, **context) -> None:
    """Execute a matched ``driver.kill`` rule.

    ``mode=exit`` (default) hard-exits the interpreter with
    :data:`KILL_EXIT_CODE` — the real preemption/OOM shape the chaos job
    tests.  ``mode=raise`` raises :class:`FaultInjected` for in-process
    tests that must keep their interpreter.
    """
    mode = rule.param_str("mode", "exit")
    if mode == "raise":
        raise FaultInjected(f"injected driver kill at {context}")
    os._exit(KILL_EXIT_CODE)  # pragma: no cover - exercised via subprocess


def crash_injection_from_plan() -> Optional[Dict[str, int]]:
    """The active plan's ``worker.crash`` rule as a ``{rank, epoch, batch}`` dict.

    The distributed trainer's only source of crash injections: the dict is
    handed to the SPMD program, whose matching rank dies at the start of
    that global batch.  Each call consumes one fire of the rule's budget.
    """
    plan = active_plan()
    if plan is None:
        return None
    for rule in plan.rules:
        if rule.site != "worker.crash" or (rule.remaining is not None and rule.remaining <= 0):
            continue
        missing = {"rank", "epoch", "batch"} - set(rule.params)
        if missing:
            raise ConfigurationError(
                f"worker.crash rule needs rank/epoch/batch, missing {sorted(missing)}"
            )
        if rule.remaining is not None:
            rule.remaining -= 1
        return {key: int(rule.params[key]) for key in ("rank", "epoch", "batch")}
    return None
