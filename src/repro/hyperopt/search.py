"""Black-box search drivers over a :class:`~repro.hyperopt.space.SearchSpace`.

Every driver shares the same contract: ``optimize(objective, n_trials)``
where ``objective(config) -> float`` returns a score to *maximise* (e.g.
validation accuracy).  Evaluation failures raise through unless the driver
is constructed with ``ignore_failures=True``, in which case the failed trial
is recorded with ``score = -inf`` and the search continues — the behaviour
you want when a corner of the hyper-parameter space makes training diverge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


from repro.exceptions import SearchError
from repro.hyperopt.samplers import scrambled_halton
from repro.hyperopt.space import SearchSpace
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

logger = get_logger(__name__)

__all__ = [
    "Trial",
    "SearchResult",
    "RandomSearch",
    "HaltonSearch",
    "EvolutionarySearch",
]

Objective = Callable[[Dict[str, object]], float]


@dataclass
class Trial:
    """One evaluated configuration."""

    index: int
    config: Dict[str, object]
    score: float
    duration_seconds: float
    failed: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "config": dict(self.config),
            "score": self.score,
            "duration_seconds": self.duration_seconds,
            "failed": self.failed,
        }


@dataclass
class SearchResult:
    """Outcome of a search run."""

    trials: List[Trial] = field(default_factory=list)

    @property
    def best_trial(self) -> Trial:
        valid = [t for t in self.trials if not t.failed]
        if not valid:
            raise SearchError("no successful trials")
        return max(valid, key=lambda t: t.score)

    @property
    def best_config(self) -> Dict[str, object]:
        return dict(self.best_trial.config)

    @property
    def best_score(self) -> float:
        return self.best_trial.score

    def __len__(self) -> int:
        return len(self.trials)


class _BaseSearch:
    """Shared trial-evaluation plumbing.

    With ``resume=True`` (requires a journal) the driver replays the
    journal's finished trials instead of re-running their objectives: every
    driver generates its trial sequence deterministically from the seed, so
    a killed sweep restarted with the same seed/space regenerates the same
    ``(index, config)`` pairs and skips straight past the recorded prefix.
    Replayed trials are not re-recorded, keeping the journal append-only.
    """

    def __init__(
        self,
        space: SearchSpace,
        seed=None,
        ignore_failures: bool = False,
        journal=None,
        resume: bool = False,
    ) -> None:
        if not isinstance(space, SearchSpace):
            raise SearchError("space must be a SearchSpace")
        self.space = space
        self._rng = as_rng(seed)
        self.ignore_failures = bool(ignore_failures)
        self.journal = journal
        self._completed: Dict[object, Dict[str, object]] = {}
        if resume:
            if journal is None:
                raise SearchError("resume=True requires a journal")
            self._completed = journal.completed_trials(journal.experiment)
            if self._completed:
                logger.info(
                    "resuming search: %d finished trial(s) found in %s",
                    len(self._completed),
                    journal.path,
                )

    def _replay(self, config: Dict[str, object], index: int) -> Optional[Trial]:
        """The journaled trial matching ``(index, config)``, if any."""
        if not self._completed:
            return None
        import json as _json

        from repro.hyperopt.journal import _default as _journal_default

        key = (int(index), _json.dumps(config, sort_keys=True, default=_journal_default))
        record = self._completed.get(key)
        if record is None:
            return None
        return Trial(
            index=int(record["index"]),
            config=dict(config),
            score=float(record.get("score", -math.inf)),
            duration_seconds=float(record.get("duration_seconds", 0.0)),
            failed=bool(record.get("failed", False)),
        )

    def _evaluate(self, objective: Objective, config: Dict[str, object], index: int) -> Trial:
        replayed = self._replay(config, index)
        if replayed is not None:
            logger.info("trial %d replayed from journal (score=%s)", index, replayed.score)
            return replayed
        start = time.perf_counter()
        failed = False
        try:
            score = float(objective(config))
        except Exception as exc:  # noqa: BLE001 - failure policy is explicit
            if not self.ignore_failures:
                raise
            logger.warning("trial %d failed: %s", index, exc)
            score = -math.inf
            failed = True
        duration = time.perf_counter() - start
        trial = Trial(
            index=index,
            config=dict(config),
            score=score,
            duration_seconds=duration,
            failed=failed,
        )
        if self.journal is not None:
            self.journal.record(trial)
        return trial


class RandomSearch(_BaseSearch):
    """Independent uniform sampling of the space."""

    def optimize(self, objective: Objective, n_trials: int) -> SearchResult:
        if n_trials <= 0:
            raise SearchError("n_trials must be positive")
        result = SearchResult()
        for index in range(n_trials):
            config = self.space.sample(self._rng)
            result.trials.append(self._evaluate(objective, config, index))
        return result


class HaltonSearch(_BaseSearch):
    """Quasi-random (scrambled Halton) space-filling search."""

    def optimize(self, objective: Objective, n_trials: int) -> SearchResult:
        if n_trials <= 0:
            raise SearchError("n_trials must be positive")
        points = scrambled_halton(n_trials, len(self.space), seed=self._rng)
        result = SearchResult()
        for index in range(n_trials):
            config = self.space.sample_from_unit_vector(points[index])
            result.trials.append(self._evaluate(objective, config, index))
        return result


class EvolutionarySearch(_BaseSearch):
    """(mu + lambda) evolution strategy with per-parameter mutation.

    Parameters
    ----------
    population_size:
        Number of parents kept each generation (mu).
    offspring_per_parent:
        Children generated per parent per generation (lambda / mu).
    mutation_scale:
        Relative mutation strength passed to the parameters.
    """

    def __init__(
        self,
        space: SearchSpace,
        population_size: int = 4,
        offspring_per_parent: int = 2,
        mutation_scale: float = 0.2,
        seed=None,
        ignore_failures: bool = False,
        journal=None,
        resume: bool = False,
    ) -> None:
        super().__init__(
            space, seed=seed, ignore_failures=ignore_failures, journal=journal, resume=resume
        )
        if population_size <= 0 or offspring_per_parent <= 0:
            raise SearchError("population_size and offspring_per_parent must be positive")
        if mutation_scale <= 0:
            raise SearchError("mutation_scale must be positive")
        self.population_size = int(population_size)
        self.offspring_per_parent = int(offspring_per_parent)
        self.mutation_scale = float(mutation_scale)

    def optimize(self, objective: Objective, n_trials: int) -> SearchResult:
        if n_trials <= 0:
            raise SearchError("n_trials must be positive")
        result = SearchResult()
        index = 0
        # Initial population: random samples.
        population: List[Trial] = []
        for _ in range(min(self.population_size, n_trials)):
            config = self.space.sample(self._rng)
            trial = self._evaluate(objective, config, index)
            population.append(trial)
            result.trials.append(trial)
            index += 1
        # Generations.
        while index < n_trials:
            parents = sorted(
                [t for t in population if not t.failed] or population,
                key=lambda t: t.score,
                reverse=True,
            )[: self.population_size]
            offspring: List[Trial] = []
            for parent in parents:
                for _ in range(self.offspring_per_parent):
                    if index >= n_trials:
                        break
                    child_config = self.space.mutate(parent.config, self._rng, self.mutation_scale)
                    trial = self._evaluate(objective, child_config, index)
                    offspring.append(trial)
                    result.trials.append(trial)
                    index += 1
            population = sorted(
                parents + offspring, key=lambda t: (not t.failed, t.score), reverse=True
            )[: self.population_size]
        return result
