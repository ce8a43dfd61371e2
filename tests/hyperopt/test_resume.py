"""Journal durability + sweep resume: killed sweeps never re-run finished trials."""

import json
import zlib

import pytest

from repro.exceptions import SearchError
from repro.hyperopt import (
    ExperimentJournal,
    FloatParameter,
    RandomSearch,
    SearchSpace,
)
from repro.hyperopt.search import Trial


def _space():
    return SearchSpace({"x": FloatParameter(-5.0, 5.0), "y": FloatParameter(-5.0, 5.0)})


def _objective(config):
    return 1.0 - ((config["x"] - 1.0) ** 2 + (config["y"] + 2.0) ** 2) / 50.0


def _trial(index, score=0.5):
    return Trial(
        index=index,
        config={"x": float(index), "y": -float(index)},
        score=score,
        duration_seconds=0.01,
    )


class TestJournalIntegrity:
    def test_records_carry_verified_crc(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "j.jsonl")
        journal.record(_trial(0))
        raw = json.loads((tmp_path / "j.jsonl").read_text().strip())
        assert "crc" in raw
        body = {k: v for k, v in raw.items() if k != "crc"}
        expected = zlib.crc32(json.dumps(body, sort_keys=True).encode()) & 0xFFFFFFFF
        assert raw["crc"] == expected
        assert len(journal.load()) == 1

    def test_flipped_byte_fails_checksum(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "j.jsonl")
        journal.record(_trial(0))
        journal.record(_trial(1))
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        lines[0] = lines[0].replace('"score": 0.5', '"score": 0.9')
        (tmp_path / "j.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SearchError, match="checksum mismatch"):
            journal.load()

    def test_truncated_tail_tolerated_on_resume_only(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "j.jsonl")
        journal.record(_trial(0))
        journal.record(_trial(1))
        # Chop the final line mid-record: the one artefact a kill can leave.
        text = (tmp_path / "j.jsonl").read_text()
        (tmp_path / "j.jsonl").write_text(text[: len(text) - 25])
        with pytest.raises(SearchError, match="corrupt journal line"):
            journal.load()
        records = journal.load_resumable()
        assert [r["index"] for r in records] == [0]

    def test_mid_file_corruption_raises_even_on_resume(self, tmp_path):
        """Only the *final* line gets crash amnesty — anything else is rot."""
        journal = ExperimentJournal(tmp_path / "j.jsonl")
        for i in range(3):
            journal.record(_trial(i))
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        lines[1] = lines[1][:-20]
        (tmp_path / "j.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SearchError, match="line 2"):
            journal.load_resumable()

    def test_completed_trials_keys(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "j.jsonl", experiment="exp")
        journal.record(_trial(0))
        journal.record(_trial(1))
        table = journal.completed_trials("exp")
        assert sorted(index for index, _ in table) == [0, 1]
        for (index, config_key), record in table.items():
            assert json.loads(config_key) == record["config"]


class TestSearchResume:
    def test_resume_requires_journal(self):
        with pytest.raises(SearchError, match="journal"):
            RandomSearch(_space(), seed=0, resume=True)

    def test_resume_skips_finished_trials(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return _objective(config)

        first = RandomSearch(_space(), seed=3, journal=ExperimentJournal(path))
        reference = first.optimize(counting, n_trials=8)
        assert calls["n"] == 8

        # Same seed + space → the resumed driver regenerates the identical
        # trial sequence and replays all 8 from the journal: zero re-runs.
        resumed = RandomSearch(
            _space(), seed=3, journal=ExperimentJournal(path), resume=True
        )
        result = resumed.optimize(counting, n_trials=8)
        assert calls["n"] == 8
        assert [t.config for t in result.trials] == [t.config for t in reference.trials]
        assert result.best_score == reference.best_score
        # Replayed trials are not re-recorded: the journal stays at 8 lines.
        assert len(ExperimentJournal(path).load()) == 8

    def test_resume_continues_a_truncated_sweep(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        RandomSearch(_space(), seed=11, journal=ExperimentJournal(path)).optimize(
            _objective, n_trials=5
        )

        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return _objective(config)

        # A longer rerun replays the 5 finished trials and runs only the new 3.
        resumed = RandomSearch(
            _space(), seed=11, journal=ExperimentJournal(path), resume=True
        )
        result = resumed.optimize(counting, n_trials=8)
        assert calls["n"] == 3
        assert len(result.trials) == 8
        assert [t.index for t in result.trials] == list(range(8))
        assert len(ExperimentJournal(path).load()) == 8

    def test_resume_with_changed_seed_reruns(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        RandomSearch(_space(), seed=1, journal=ExperimentJournal(path)).optimize(
            _objective, n_trials=4
        )
        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return _objective(config)

        # A different seed generates different configs — nothing replays.
        RandomSearch(
            _space(), seed=2, journal=ExperimentJournal(path), resume=True
        ).optimize(counting, n_trials=4)
        assert calls["n"] == 4
