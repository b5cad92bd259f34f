"""The streaming artifact store: ``runs/<scenario>/<run-id>/``.

Every scenario run writes two files:

* ``records.jsonl`` -- one canonical JSON object per evaluated item
  (sorted keys, compact separators), appended and flushed record by
  record, so a killed run loses at most the line being written;
* ``manifest.json`` -- the run's identity: scenario name, materialised
  parameters, a config hash over both, the git revision of the code that
  ran (:func:`code_revision`), creation time and status (``running`` /
  ``interrupted`` / ``complete``).

Resumability is a byte-level guarantee: records are written strictly in
item order, so the completed records of an interrupted run are a prefix
of the uninterrupted run's file.  :meth:`RunHandle.load_records`
truncates a partial trailing line (a mid-write kill) before resuming,
and the executor then appends exactly the missing suffix -- the resumed
file is byte-identical to a never-interrupted run (pinned by
``tests/test_pipeline.py`` and the CI smoke job).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional

#: Environment variable overriding the default store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


def canonical_json(data: object) -> str:
    """The store's single serialisation: sorted keys, compact, ASCII.

    Byte-stable across runs and platforms for JSON-representable data
    (tuples serialise as lists), which is what makes ``records.jsonl``
    diffable between interrupted-and-resumed and uninterrupted runs.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(scenario_name: str, params: Mapping[str, object]) -> str:
    """Hash identifying one (scenario, params) configuration."""
    payload = canonical_json({"scenario": scenario_name, "params": params})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def git_revision(cwd: Optional[Path] = None) -> Optional[str]:
    """Best-effort ``git rev-parse HEAD`` of the working tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=str(cwd) if cwd else None,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


@functools.lru_cache(maxsize=None)
def code_revision() -> Optional[str]:
    """The revision of the tree this ``repro`` was imported from, once per process.

    Not the caller's working directory: a run started elsewhere still
    names the code that produced its records.
    """
    return git_revision(Path(__file__).resolve().parent)


class StoreError(RuntimeError):
    """A run directory in a state the operation cannot proceed from."""


class RunHandle:
    """One run directory: manifest plus the streaming records file."""

    def __init__(self, directory: Path, manifest: Dict[str, object]):
        self.directory = Path(directory)
        self.manifest = manifest
        self._records_file = None

    @property
    def run_id(self) -> str:
        return str(self.manifest["run_id"])

    @property
    def scenario(self) -> str:
        return str(self.manifest["scenario"])

    @property
    def params(self) -> Dict[str, object]:
        return dict(self.manifest["params"])  # type: ignore[arg-type]

    @property
    def records_path(self) -> Path:
        return self.directory / RECORDS_NAME

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def write_manifest(self) -> None:
        """Atomically (tmp + rename) persist the manifest."""
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.manifest, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, self.manifest_path)

    def load_records(self) -> List[Dict[str, object]]:
        """All complete records on disk, truncating a partial tail."""
        if not self.records_path.exists():
            return []
        raw = self.records_path.read_bytes()
        records: List[Dict[str, object]] = []
        consumed = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # partial tail: the run died mid-write
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"corrupt record at byte {consumed} of {self.records_path}: {exc}"
                ) from exc
            consumed += len(line)
        if consumed != len(raw):
            self._close_records()
            with open(self.records_path, "r+b") as handle:
                handle.truncate(consumed)
        return records

    def append(self, record: Mapping[str, object]) -> None:
        """Append one record as a canonical JSON line and flush it."""
        if self._records_file is None:
            self._records_file = open(self.records_path, "a", encoding="utf-8")
        self._records_file.write(canonical_json(record) + "\n")
        self._records_file.flush()

    def finish(self, status: str, records: int) -> None:
        """Finalise the manifest; an interrupted run stays ``running``."""
        self._close_records()
        self.manifest["status"] = status
        self.manifest["records"] = records
        self.manifest["finished_at"] = _now()
        self.write_manifest()

    def _close_records(self) -> None:
        if self._records_file is not None:
            self._records_file.close()
            self._records_file = None


class ArtifactStore:
    """The on-disk layout ``<root>/<scenario>/<run-id>/``."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get(RUNS_DIR_ENV, "runs")
        self.root = Path(root)

    def run_directory(self, scenario: str, run_id: str) -> Path:
        return self.root / scenario / run_id

    def run_ids(self, scenario: str) -> List[str]:
        """Run ids of one scenario, oldest first (ids are time-prefixed)."""
        directory = self.root / scenario
        if not directory.is_dir():
            return []
        return sorted(
            entry.name
            for entry in directory.iterdir()
            if (entry / MANIFEST_NAME).exists()
        )

    def latest_run_id(self, scenario: str) -> Optional[str]:
        ids = self.run_ids(scenario)
        return ids[-1] if ids else None

    def create(
        self,
        scenario_name: str,
        params: Mapping[str, object],
        run_id: Optional[str] = None,
        extra: Optional[Mapping[str, object]] = None,
    ) -> RunHandle:
        """Create a fresh run directory with a ``running`` manifest.

        The directory itself is the claim: ``mkdir(exist_ok=False)`` is
        atomic on every platform we care about, so two concurrent
        workers creating the same run id cannot both win -- the loser
        gets a :class:`StoreError` instead of silently sharing (and
        corrupting) the winner's record file.
        """
        if run_id is None:
            run_id = new_run_id()
        directory = self.run_directory(scenario_name, run_id)
        directory.parent.mkdir(parents=True, exist_ok=True)
        try:
            directory.mkdir()
        except FileExistsError:
            raise StoreError(
                f"run {scenario_name}/{run_id} already exists at {directory}; "
                "use resume, or pick another --run-id"
            ) from None
        manifest: Dict[str, object] = {
            "scenario": scenario_name,
            "run_id": run_id,
            "params": _jsonable(params),
            "config_hash": config_hash(scenario_name, params),
            "git_rev": code_revision(),
            "created_at": _now(),
            "status": "running",
            "records": 0,
        }
        if extra:
            manifest.update(extra)
        handle = RunHandle(directory, manifest)
        handle.write_manifest()
        return handle

    def open(self, scenario_name: str, run_id: Optional[str] = None) -> RunHandle:
        """Open an existing run (``run_id=None`` opens the latest)."""
        if run_id is None:
            run_id = self.latest_run_id(scenario_name)
            if run_id is None:
                raise StoreError(
                    f"no runs of scenario {scenario_name!r} under {self.root}"
                )
        directory = self.run_directory(scenario_name, run_id)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("scenario") != scenario_name:
            raise StoreError(
                f"manifest at {manifest_path} belongs to scenario "
                f"{manifest.get('scenario')!r}, not {scenario_name!r}"
            )
        return RunHandle(directory, manifest)


#: Per-process monotonic suffix of :func:`new_run_id`.  Two runs created
#: in the same second by the same process used to collide (``create``
#: raised :class:`StoreError`); the counter makes every id unique *and*
#: orders same-second ids by creation.
_RUN_ID_SEQ = itertools.count()


def new_run_id() -> str:
    """Unique run id whose lexicographic order is creation order.

    ``<UTC time>-<pid, zero-padded>-<per-process counter, zero-padded>``.
    Every component is fixed width, so plain string sorting -- what
    :meth:`ArtifactStore.run_ids` and therefore ``latest_run_id`` do --
    agrees with ``(time, pid, sequence)`` ordering.  The old variable
    width ``-<pid>`` suffix sorted ``...-99`` *after* ``...-100`` and
    could make ``latest_run_id`` resume the wrong same-second run.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid():08d}-{next(_RUN_ID_SEQ):06d}"


def _jsonable(data: Mapping[str, object]) -> Dict[str, object]:
    """Round-trip params through JSON so the manifest equals what a
    resumed run will read back (tuples become lists once, not twice)."""
    return json.loads(canonical_json(dict(data)))


def _now() -> str:
    """Timezone-aware UTC ISO-8601 manifest timestamp.

    The old ``time.strftime('%z')`` rendering used *local* time and an
    offset that is empty on platforms whose strftime lacks ``%z``,
    leaving manifests with unzoned, machine-dependent times.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
