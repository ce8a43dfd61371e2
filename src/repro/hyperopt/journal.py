"""Persistent experiment journal (checksummed JSON-lines trial log).

Keeps an append-only record of every evaluated configuration so that long
hyper-parameter sweeps (or ones interrupted half-way) can be inspected and
resumed.  This mirrors the experiment-tracking role Ax played in the paper's
workflow.

Durability contract (see ``docs/reliability.md``): every line carries a
CRC-32 of its own payload and is flushed + fsync'd before ``record``
returns, so a record either exists completely or not at all.  A sweep
killed mid-write leaves at most one truncated *final* line, which
:meth:`ExperimentJournal.load_resumable` silently drops — corruption
anywhere else is a real integrity failure and raises
:class:`~repro.exceptions.SearchError`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SearchError

__all__ = ["ExperimentJournal"]


def _line_crc(payload: Dict[str, object]) -> int:
    """CRC-32 of the canonical JSON encoding of a record (without ``crc``)."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    blob = json.dumps(body, sort_keys=True, default=_default).encode("utf-8")
    return zlib.crc32(blob) & 0xFFFFFFFF


class ExperimentJournal:
    """Append-only, per-line-checksummed JSONL log of search trials.

    Parameters
    ----------
    path:
        File to write to.  Parent directories are created as needed.
    experiment:
        Free-form experiment name stored with every record.
    """

    def __init__(self, path: Union[str, Path], experiment: str = "search") -> None:
        self.path = Path(path)
        self.experiment = str(experiment)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    # --------------------------------------------------------------- write
    def record(self, trial) -> None:
        """Append one trial (anything exposing ``as_dict``) to the journal.

        The line is flushed and fsync'd before returning, so a completed
        trial survives a subsequent crash of the sweep process.
        """
        if hasattr(trial, "as_dict"):
            payload = trial.as_dict()
        elif isinstance(trial, dict):
            payload = dict(trial)
        else:
            raise SearchError("trial must be a Trial or a dict")
        payload["experiment"] = self.experiment
        payload["crc"] = _line_crc(payload)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, default=_default) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ---------------------------------------------------------------- read
    def _parse_lines(
        self, experiment: Optional[str], tolerate_truncated_tail: bool
    ) -> List[Dict[str, object]]:
        if not self.path.exists():
            return []
        with self.path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        last_nonblank = 0
        for number, line in enumerate(lines, start=1):
            if line.strip():
                last_nonblank = number
        records: List[Dict[str, object]] = []
        for line_number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            is_tail = line_number == last_nonblank
            try:
                record = json.loads(stripped)
                if not isinstance(record, dict):
                    raise SearchError(
                        f"corrupt journal line {line_number} in {self.path}: not a record"
                    )
                if "crc" in record and int(record["crc"]) != _line_crc(record):
                    raise SearchError(
                        f"corrupt journal line {line_number} in {self.path}: "
                        "checksum mismatch"
                    )
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                if tolerate_truncated_tail and is_tail:
                    # The fsync-per-line write discipline means only the very
                    # last line can be a partial write from a killed sweep.
                    continue
                raise SearchError(
                    f"corrupt journal line {line_number} in {self.path}: {exc}"
                ) from exc
            except SearchError:
                if tolerate_truncated_tail and is_tail:
                    continue
                raise
            if experiment is None or record.get("experiment") == experiment:
                records.append(record)
        return records

    def load(self, experiment: Optional[str] = None) -> List[Dict[str, object]]:
        """Read back all records, verifying per-line checksums."""
        return self._parse_lines(experiment, tolerate_truncated_tail=False)

    def load_resumable(self, experiment: Optional[str] = None) -> List[Dict[str, object]]:
        """Like :meth:`load`, but silently drop a truncated/corrupt final line.

        The resume path for killed sweeps: everything the journal fsync'd is
        returned; the one line a crash can truncate is skipped.  Corruption
        anywhere *else* still raises — that is bit rot, not a crash artefact.
        """
        return self._parse_lines(experiment, tolerate_truncated_tail=True)

    def completed_trials(
        self, experiment: Optional[str] = None
    ) -> Dict[Tuple[int, str], Dict[str, object]]:
        """Finished trials keyed by ``(index, canonical-config)``.

        The key a resumed search driver uses to recognise a trial it already
        ran: the config is compared structurally (canonical sorted-key JSON),
        so a resumed sweep that generates the same deterministic trial
        sequence skips straight past the finished prefix.
        """
        table: Dict[Tuple[int, str], Dict[str, object]] = {}
        for record in self.load_resumable(experiment):
            if "index" not in record or "config" not in record:
                continue
            config = json.dumps(record["config"], sort_keys=True, default=_default)
            table[(int(record["index"]), config)] = record
        return table

    def best(self, experiment: Optional[str] = None) -> Optional[Dict[str, object]]:
        """The highest-scoring non-failed record, or ``None`` when empty."""
        records = [r for r in self.load(experiment) if not r.get("failed", False)]
        if not records:
            return None
        return max(records, key=lambda r: r.get("score", float("-inf")))

    def __len__(self) -> int:
        return len(self.load())


def _default(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
