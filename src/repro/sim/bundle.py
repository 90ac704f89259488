"""Self-describing run bundles: one artifact per simulation run.

Every telemetry plane so far (metrics snapshots, causal event logs,
Chrome traces, edge-sampled timelines, wait profiles) writes a loose
file; comparing two runs — the core loop of performance and
correctness work — means juggling paths and remembering which knobs
produced which file.  A *run bundle* makes the run itself the
artifact: one directory (or ``.tar.gz``) holding every plane the run
produced, a **fingerprint** of the configuration that produced it
(workload, device pairs, seed, executor, every ``FLUX_*`` knob, the
git sha), and a **manifest** with a SHA-256 digest per file, so a
bundle read back months later is provably the bundle that was written.

Layout (all members optional except the manifest)::

    manifest.json    schema, kind, fingerprint, per-file digests
    metrics.json     the --metrics-out document (shape varies by kind)
    events.jsonl     the causally-merged event log (--events-out)
    timeline.json    the edge-sampled time-series plane (--timeline-out)
    trace.json       the Chrome trace (--trace-out)

``flux-sim migrate/sweep/scenario/fleet --bundle-out PATH`` writes one;
``flux-sim explain`` and ``flux-sim bench-check`` read one back, so a
post-mortem or a regression gate runs from the bundle alone — no access
to the run that produced it, no re-simulation.  ``flux-sim diff A B``
(:mod:`repro.sim.diffing`) compares two.

Determinism contract: a bundle contains **no wall-clock timestamps**
and every JSON member is written with sorted keys, so two runs of the
same deterministic simulation under the same configuration produce
byte-identical bundles — which is exactly what lets ``diff`` report an
*empty* diff instead of a noisy one.  Host measurements (the sweep's
``--profile-out`` cProfile rows, wall seconds) are therefore never
members; they go only to their own file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import tarfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.events import parse_jsonl
from repro.sim.metrics import empty_snapshot
from repro.sim.rows import BundleError, migration_rows
from repro.sim.shapes import check
from repro.sim.timeline import parse_timeline_document, timeline_document

#: On-disk bundle format version; readers reject any other value.
BUNDLE_SCHEMA = 1

MANIFEST_NAME = "manifest.json"

#: The run kinds a bundle can describe (what produced it).
BUNDLE_KINDS = ("migrate", "sweep", "scenario", "fleet")

#: Suffixes that select the single-file tarball representation.
_TAR_SUFFIXES = (".tar.gz", ".tgz")

#: Canonical member order inside a bundle (manifest first, then planes);
#: tarballs are packed in this order so identical runs produce
#: byte-identical archives.
_MEMBER_ORDER = (MANIFEST_NAME, "metrics.json", "events.jsonl",
                 "timeline.json", "trace.json")

#: What readers require of a manifest (``verify`` compares each ``files``
#: entry whole) and of a metrics document's counter sections.
_MANIFEST = {"files?": {str: object}, "fingerprint?": dict}
_SNAPSHOT = ({"counters?": {str: float}, "gauges?": {str: float},
              "histograms?": {str: ({"count": (float, None),
                                     "sum": (float, None)}, None)}}, None)
_METRICS = {"totals": _SNAPSHOT, "metrics": _SNAPSHOT,
            "rollup": ({str: float}, None)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(document: Any) -> bytes:
    return (json.dumps(document, indent=1, sort_keys=True) + "\n").encode(
        "utf-8")


def _dumps_jsonl(events: Iterable[Dict[str, Any]]) -> bytes:
    buffer = io.StringIO()
    for event in events:
        buffer.write(json.dumps(event, sort_keys=True))
        buffer.write("\n")
    return buffer.getvalue().encode("utf-8")


# -- fingerprinting -----------------------------------------------------------


def flux_environment() -> Dict[str, str]:
    """Every ``FLUX_*`` knob currently set, sorted — part of the
    fingerprint because the knobs change what the planes contain
    (``FLUX_EVENTS=0`` yields an empty event log, not a broken one)."""
    return {key: value for key, value in sorted(os.environ.items())
            if key.startswith("FLUX_")}


_GIT_SHA: Optional[str] = None
_GIT_SHA_PROBED = False


def git_sha() -> Optional[str]:
    """The repo's HEAD sha, or None outside a git checkout.

    Memoized: the sha cannot change within one process's run, and the
    subprocess probe is the only non-trivial cost of fingerprinting.
    """
    global _GIT_SHA, _GIT_SHA_PROBED
    if _GIT_SHA_PROBED:
        return _GIT_SHA
    _GIT_SHA_PROBED = True
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(Path(__file__).resolve().parent),
            capture_output=True, text=True, timeout=10)
        if probe.returncode == 0:
            _GIT_SHA = probe.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        _GIT_SHA = None
    return _GIT_SHA


def collect_fingerprint(kind: str, *,
                        workload: Iterable[str] = (),
                        pairs: Iterable[str] = (),
                        seed: Optional[int] = None,
                        executor: Optional[str] = None,
                        workers: Optional[Any] = None,
                        extra: Optional[Mapping[str, Any]] = None
                        ) -> Dict[str, Any]:
    """The config/env identity of a run, JSON-ready and sorted.

    ``workload`` is the packages migrated, ``pairs`` the device routes,
    and ``extra`` carries kind-specific knobs (extensions, fault plans,
    admission policy).  Two bundles with equal fingerprints *should* be
    byte-identical; :mod:`repro.sim.diffing` reports every field that
    differs before comparing the planes.
    """
    if kind not in BUNDLE_KINDS:
        raise BundleError(f"unknown bundle kind {kind!r}; "
                          f"choose from {BUNDLE_KINDS}")
    fingerprint: Dict[str, Any] = {
        "kind": kind,
        "workload": sorted(workload),
        "pairs": list(pairs),
        "seed": seed,
        "executor": executor,
        "workers": None if workers is None else str(workers),
        "env": flux_environment(),
        "git_sha": git_sha(),
    }
    if extra:
        for key, value in sorted(extra.items()):
            fingerprint[key] = value
    return fingerprint


# -- writing ------------------------------------------------------------------


def is_tar_path(path: str) -> bool:
    return str(path).endswith(_TAR_SUFFIXES)


def write_bundle(path: str, *, kind: str, fingerprint: Dict[str, Any],
                 metrics: Optional[Dict[str, Any]] = None,
                 events: Optional[Iterable[Dict[str, Any]]] = None,
                 timeline: Optional[Dict[str, List[List[float]]]] = None,
                 trace: Optional[Any] = None) -> str:
    """Write a run bundle to ``path`` (a directory, or ``.tar.gz``).

    Every supplied plane becomes one member; the manifest records each
    member's byte size and SHA-256 digest.  Returns the path written.
    """
    if kind not in BUNDLE_KINDS:
        raise BundleError(f"unknown bundle kind {kind!r}; "
                          f"choose from {BUNDLE_KINDS}")
    members: Dict[str, bytes] = {}
    if metrics is not None:
        members["metrics.json"] = _dumps(metrics)
    if events is not None:
        members["events.jsonl"] = _dumps_jsonl(events)
    if timeline is not None:
        members["timeline.json"] = _dumps(timeline_document(timeline))
    if trace is not None:
        members["trace.json"] = _dumps(trace)

    manifest = {
        "schema": BUNDLE_SCHEMA,
        "kind": kind,
        "fingerprint": fingerprint,
        "files": {name: {"bytes": len(data), "sha256": _sha256(data)}
                  for name, data in sorted(members.items())},
    }
    members[MANIFEST_NAME] = _dumps(manifest)

    ordered = [(name, members[name]) for name in _MEMBER_ORDER
               if name in members]
    if is_tar_path(path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        # Fixed mtime/uid/gid and no embedded filename: the archive
        # bytes are a pure function of the members, so identical runs
        # tar identically whatever the archive is called.
        with open(path, "wb") as raw:
            import gzip
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                               mtime=0) as gz:
                with tarfile.open(fileobj=gz, mode="w") as tar:
                    for name, data in ordered:
                        info = tarfile.TarInfo(name=name)
                        info.size = len(data)
                        info.mtime = 0
                        info.uid = info.gid = 0
                        info.uname = info.gname = ""
                        tar.addfile(info, io.BytesIO(data))
    else:
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for name, data in ordered:
            (root / name).write_bytes(data)
    return str(path)


# -- reading ------------------------------------------------------------------


def is_bundle_path(path: str) -> bool:
    """Does ``path`` look like a run bundle (vs a loose plane file)?"""
    p = Path(path)
    if p.is_dir():
        return (p / MANIFEST_NAME).is_file()
    if p.is_file() and is_tar_path(path):
        return tarfile.is_tarfile(path)
    return False


class RunBundle:
    """A loaded run bundle: manifest, fingerprint, and lazy plane views.

    Digests are verified at load time (``verify=False`` skips, for
    tooling that wants to inspect a corrupt bundle anyway); a mismatch
    names the member, because "which file rotted" is the first question.
    """

    def __init__(self, path: str, manifest: Dict[str, Any],
                 members: Dict[str, bytes]) -> None:
        self.path = str(path)
        self.manifest = manifest
        self._members = members

    # -- loading ------------------------------------------------------------

    @classmethod
    def load(cls, path: str, verify: bool = True) -> "RunBundle":
        p = Path(path)
        members: Dict[str, bytes] = {}
        if p.is_dir():
            manifest_path = p / MANIFEST_NAME
            if not manifest_path.is_file():
                raise BundleError(f"{path}: not a run bundle "
                                  f"(no {MANIFEST_NAME})")
            for child in p.iterdir():
                if child.is_file():
                    members[child.name] = child.read_bytes()
        elif p.is_file():
            try:
                with tarfile.open(path, mode="r:*") as tar:
                    for info in tar.getmembers():
                        if not info.isfile():
                            continue
                        extracted = tar.extractfile(info)
                        if extracted is not None:
                            members[info.name] = extracted.read()
            except tarfile.TarError as error:
                raise BundleError(f"{path}: unreadable bundle archive: "
                                  f"{error}") from error
        else:
            raise BundleError(f"{path}: no such bundle")
        if MANIFEST_NAME not in members:
            raise BundleError(f"{path}: not a run bundle "
                              f"(no {MANIFEST_NAME} member)")
        bundle = cls(path, {}, members)
        bundle.manifest = check(bundle.read_json(MANIFEST_NAME), _MANIFEST,
                                f"{path}: corrupt {MANIFEST_NAME}",
                                BundleError)
        schema = bundle.manifest.get("schema")
        if schema != BUNDLE_SCHEMA:
            raise BundleError(
                f"{path}: unsupported bundle schema {schema!r} (this "
                f"build reads schema {BUNDLE_SCHEMA}); regenerate the "
                f"bundle or upgrade")
        if verify:
            bundle.verify()
        return bundle

    def verify(self) -> None:
        """Check every manifest digest against the member bytes."""
        for name, meta in self.manifest.get("files", {}).items():
            data = self._members.get(name)
            if data is None:
                raise BundleError(f"{self.path}: member {name!r} listed "
                                  f"in the manifest but missing")
            actual = {"bytes": len(data), "sha256": _sha256(data)}
            if meta != actual:               # whatever the entry's shape
                raise BundleError(
                    f"{self.path}: member {name!r} digest mismatch "
                    f"(manifest {meta}, actual {actual}) "
                    f"— the bundle was modified after it was written")

    # -- identity -----------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "?")

    @property
    def fingerprint(self) -> Dict[str, Any]:
        return self.manifest.get("fingerprint", {})

    def members(self) -> List[str]:
        return sorted(self._members)

    def has(self, name: str) -> bool:
        return name in self._members

    def read_bytes(self, name: str) -> bytes:
        data = self._members.get(name)
        if data is None:
            raise BundleError(f"{self.path}: bundle has no member "
                              f"{name!r} (members: {self.members()})")
        return data

    def read_json(self, name: str) -> Any:
        try:
            return json.loads(self.read_bytes(name).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BundleError(f"{self.path}/{name}: corrupt JSON: "
                              f"{error}") from error

    # -- plane views --------------------------------------------------------

    def metrics_document(self) -> Dict[str, Any]:
        """The bundled ``--metrics-out`` document (shape varies by kind)."""
        return check(self.read_json("metrics.json"), _METRICS,
                     f"{self.path}/metrics.json", BundleError)

    def events(self) -> List[Dict[str, Any]]:
        """The bundled causal event log ([] when the run had none)."""
        if not self.has("events.jsonl"):
            return []
        text = self.read_bytes("events.jsonl").decode("utf-8")
        return parse_jsonl(text.splitlines(),
                           source=f"{self.path}/events.jsonl")

    def timeline_series(self) -> Dict[str, List[List[float]]]:
        """The bundled edge-sampled series ({} when the run had none)."""
        if not self.has("timeline.json"):
            return {}
        return parse_timeline_document(self.read_json("timeline.json"),
                                       source=f"{self.path}/timeline.json")

    # -- cross-kind normalizations (what the diff engine consumes) ----------

    def snapshot(self) -> Dict[str, Any]:
        """The run's merged metrics snapshot, whatever the kind.

        ``migrate``, ``scenario`` and ``fleet`` documents carry it under
        ``metrics``; ``sweep`` documents under ``totals``.
        """
        if not self.has("metrics.json"):
            return empty_snapshot()
        document = self.metrics_document()
        return (document.get("totals") or document.get("metrics")
                or empty_snapshot())

    def migration_rows(self) -> List[Dict[str, Any]]:
        """One normalized row per migration attempt in the bundle (see
        :func:`repro.sim.rows.migration_rows`)."""
        if not self.has("metrics.json"):
            return []
        return migration_rows(self.metrics_document(),
                              source=f"{self.path}/metrics.json")

    def wait_profiles(self) -> Dict[str, Dict[str, float]]:
        """Per-session wait profiles (queued/resource/dilation/active)
        by session label, else join key; ``{}`` for a sweep bundle, whose
        synchronous migrations never wait."""
        return {row["session"] or row["key"]: row["wait_profile"]
                for row in self.migration_rows() if row["wait_profile"]}


def fingerprint_differences(a: Mapping[str, Any], b: Mapping[str, Any]
                            ) -> Dict[str, Tuple[Any, Any]]:
    """Fingerprint fields that differ: ``field -> (a_value, b_value)``."""
    differences: Dict[str, Tuple[Any, Any]] = {}
    for field in sorted(set(a) | set(b)):
        if a.get(field) != b.get(field):
            differences[field] = (a.get(field), b.get(field))
    return differences
