"""Scrub & repair: proactive integrity checking of a durability directory.

The WAL stack already *survives* damage lazily — recovery truncates torn
tails, checkpoint loading falls back past rotted files — but lazy survival
finds rot only when a restart happens to read the bytes.  The scrubber
finds it early, while redundancy still exists:

- **checkpoints** — every primary/mirror pair is re-validated end to end
  (format tag, SHA-256 checksum, internal digest consistency).  A rotted
  primary is repaired from its mirror (and vice versa) with the atomic
  temp-fsync-rename dance; when *both* copies of a checkpoint are bad the
  pair is quarantined (renamed ``*.quarantined``) so loaders fall back to
  an older anchor instead of tripping over it;
- **WAL segments** — every sealed segment's CRC framing is re-verified.
  Segment damage is *reported, never repaired* here: truncation decisions
  need the cross-segment sequence chain, which is recovery's job
  (:func:`~repro.db.wal.segments.scan_wal`);
- **intent journal** — the cross-shard journal's framing is re-verified,
  again report-only;
- **generator table** — ``generator.tbl`` at the layout's root is
  re-derived link by link: ``entry[0] == g``, every ``entry[i]^256 ==
  entry[i+1]``, and its group is the journaled one.  A bad table is
  unlinked (``kind="generator_table"``, ``action="repaired"``): the next
  recovery rebuilds and rewrites it.  This runs before the accumulator
  check, which forms ``g^S`` over the table only once it has passed;
- **accumulators** — for every checkpoint that validates, re-prove from
  scratch what recovery takes on trust: the provider rows equal the store
  rows, each row's journaled ``(key, value, relation)`` primes are its
  category primes (so their product is ``prod h(k, v)``), the journaled
  exponent product is ``S == prod h(k, v)`` over those rows, and ``g^S``
  is the journaled digest.  Report-only: a mismatch, or group parameters
  no accumulator can be built in, is ``kind="accumulator"``,
  ``action="reported"``.

Sharded layouts are walked automatically: a directory containing
``shard-NN`` subdirectories is scrubbed shard by shard plus the parent's
intent journal.

Two entry points: :func:`scrub_directory` (one pass; the ``--scrub`` CLI)
and :class:`BackgroundScrubber` (a daemon thread a
:class:`~repro.db.wal.manager.DurabilityManager` runs when
``DurabilityConfig.scrub_interval`` is set).  The background pass skips
the active segment and the newest checkpoint pair — both may be mid-write
— and shrugs off files that vanish mid-scan (checkpoint GC races).

Metrics: ``scrub.runs``, ``scrub.files_scanned``, ``scrub.records_verified``,
``scrub.damage_found``, ``scrub.repairs``, ``scrub.quarantined``,
``scrub.errors``; plus ``storage.mirror_repairs`` when a checkpoint
primary is rebuilt from its mirror.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter

from ..crypto.authdict import AuthenticatedDictionary
from ..crypto.cache import discard_generator_fixed_base, generator_fixed_base
from ..crypto.rsa_group import RSAGroup
from ..errors import CryptoError
from ..obs.metrics import MetricsRegistry, get_metrics
from .fsio import OS_FILESYSTEM, FileSystem
from .wal.checkpoints import (
    _LOAD_FAILURES,
    Checkpoint,
    _load_one,
    _write_atomic,
    list_checkpoints,
    mirror_path,
)
from .wal.generator_table import GENERATOR_TABLE_NAME, generator_table_problem
from .wal.intents import (
    INTENT_JOURNAL_NAME,
    IntentJournal,
    list_shard_directories,
)
from .wal.records import STATUS_CLEAN
from .wal.segments import list_segments, segment_records

__all__ = [
    "BackgroundScrubber",
    "ScrubFinding",
    "ScrubReport",
    "scrub_directory",
]

QUARANTINE_SUFFIX = ".quarantined"


@dataclass(frozen=True)
class ScrubFinding:
    """One damaged artifact and what the scrubber did about it.

    ``action`` is ``"repaired"`` (rebuilt from the healthy twin),
    ``"quarantined"`` (both copies bad; renamed aside), or ``"reported"``
    (left in place — segment/journal damage belongs to recovery).
    """

    path: str
    # "checkpoint" | "mirror" | "segment" | "intents" | "accumulator"
    # | "generator_table"
    kind: str
    problem: str
    action: str


@dataclass
class ScrubReport:
    """What one scrub pass verified, found, and fixed."""

    directories: tuple[str, ...] = ()
    files_scanned: int = 0
    checkpoints_verified: int = 0
    accumulators_verified: int = 0  # checkpoints whose (S, digest) re-proved
    records_verified: int = 0  # WAL + intent records whose CRCs re-checked
    findings: list[ScrubFinding] = field(default_factory=list)
    repaired: int = 0
    quarantined: int = 0
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff no damage remains in place (reported-only findings)."""
        return not any(f.action == "reported" for f in self.findings)

    def summary(self) -> str:
        state = "clean" if not self.findings else (
            "healed" if self.ok else "DAMAGED"
        )
        return (
            f"scrub [{state}]: {self.files_scanned} file(s), "
            f"{self.checkpoints_verified} checkpoint(s), "
            f"{self.accumulators_verified} accumulator(s), "
            f"{self.records_verified} record(s) verified; "
            f"{len(self.findings)} finding(s), {self.repaired} repaired, "
            f"{self.quarantined} quarantined"
        )


def _quarantine(fs: FileSystem, path: str) -> None:
    fs.replace(path, path + QUARANTINE_SUFFIX)


def _accumulator_problem(checkpoint: Checkpoint) -> str:
    """Why *checkpoint*'s provider state is not its rows' accumulator ("" if it is)."""
    if checkpoint.provider_store != checkpoint.rows:
        return "provider rows differ from the store rows"
    prime_bits = checkpoint.config.get("prime_bits")
    if not isinstance(prime_bits, int):
        return "journaled config names no prime_bits to re-prove S with"
    try:
        dictionary = AuthenticatedDictionary(
            RSAGroup(checkpoint.group_modulus, checkpoint.group_generator),
            checkpoint.rows,
            prime_bits,
        )
    except (CryptoError, ValueError, OverflowError) as exc:
        # An invalid modulus, generator or prime size: no accumulator to
        # compare, which is itself the finding.
        return f"cannot re-prove S from the journaled group and prime size: {exc}"
    journaled = checkpoint.provider_factors
    if journaled is not None:
        factors = dictionary.state()[3]
        if journaled.keys() != factors.keys():
            return "journaled primes cover other keys than the rows"
        wrong = sum(journaled[key] != primes for key, primes in factors.items())
        if wrong:
            return (
                f"journaled primes of {wrong} row(s) are not their "
                "category primes"
            )
    if dictionary.product != checkpoint.provider_product:
        return "journaled product S is not the product of the rows' pairs"
    if dictionary.digest != checkpoint.digest:
        return "g^S is not the journaled digest"
    return ""


def _scrub_checkpoints(
    directory: str,
    fs: FileSystem,
    registry: MetricsRegistry,
    report: ScrubReport,
    repair: bool,
    skip_newest: bool,
) -> None:
    primaries = list_checkpoints(directory, fs)
    if skip_newest:
        primaries = primaries[1:]
    for primary in primaries:
        mirror = mirror_path(primary)
        problems: dict[str, str] = {}
        valid_twin: str | None = None
        loaded: Checkpoint | None = None
        for path, kind in ((primary, "checkpoint"), (mirror, "mirror")):
            try:
                checkpoint = _load_one(path, fs)
            except FileNotFoundError:
                if kind == "checkpoint":
                    problems[path] = "vanished mid-scan (GC race)"
                    break
                problems[path] = "mirror missing"
                continue
            except _LOAD_FAILURES as exc:
                problems[path] = str(exc)
                continue
            report.files_scanned += 1
            if valid_twin is None:
                valid_twin, loaded = path, checkpoint
            if kind == "checkpoint":
                report.checkpoints_verified += 1
        if loaded is not None:
            problem = _accumulator_problem(loaded)
            if problem:
                report.findings.append(
                    ScrubFinding(
                        path=valid_twin, kind="accumulator", problem=problem,
                        action="reported",
                    )
                )
            else:
                report.accumulators_verified += 1
        if not problems:
            continue
        if "GC race" in next(iter(problems.values()), ""):
            continue  # the whole pair was retired under us; nothing to do
        if valid_twin is not None:
            # One healthy copy survives: rebuild its damaged twin from it.
            for path, problem in problems.items():
                kind = "mirror" if path == mirror else "checkpoint"
                action = "reported"
                if repair:
                    try:
                        _write_atomic(
                            fs, directory, path, fs.read_bytes(valid_twin), True
                        )
                        action = "repaired"
                        report.repaired += 1
                        registry.counter("scrub.repairs").inc()
                        if kind == "checkpoint":
                            registry.counter("storage.mirror_repairs").inc()
                    except OSError:
                        action = "reported"
                report.findings.append(
                    ScrubFinding(path=path, kind=kind, problem=problem, action=action)
                )
        else:
            # Both copies bad: move the pair aside so loaders fall back to
            # an older anchor instead of re-parsing known-bad bytes.
            for path, problem in problems.items():
                kind = "mirror" if path == mirror else "checkpoint"
                action = "reported"
                if repair and "missing" not in problem:
                    try:
                        _quarantine(fs, path)
                        action = "quarantined"
                        report.quarantined += 1
                        registry.counter("scrub.quarantined").inc()
                    except OSError:
                        action = "reported"
                if "missing" in problem and repair:
                    continue  # nothing on disk to quarantine
                report.findings.append(
                    ScrubFinding(path=path, kind=kind, problem=problem, action=action)
                )


def _journaled_group(
    targets: list[str], fs: FileSystem
) -> tuple[int, int] | None:
    """``(N, g)`` of the first checkpoint in *targets* that loads."""
    for target in targets:
        for path in list_checkpoints(target, fs):
            try:
                checkpoint = _load_one(path, fs)
            except _LOAD_FAILURES:
                continue
            return checkpoint.group_modulus, checkpoint.group_generator
    return None


def _scrub_generator_table(
    directory: str,
    targets: list[str],
    fs: FileSystem,
    registry: MetricsRegistry,
    report: ScrubReport,
    repair: bool,
) -> None:
    path = os.path.join(directory, GENERATOR_TABLE_NAME)
    try:
        data = fs.read_bytes(path)
    except FileNotFoundError:
        return
    report.files_scanned += 1
    group = _journaled_group(targets, fs)
    problem, window = generator_table_problem(data, group)
    if window is not None:
        # Every link re-derived: as good as a table built from g, so the
        # accumulator check below may use it.
        generator_fixed_base(window.modulus, window.base, lambda: window)
        return
    if group is not None:
        # A table this process loaded from the bad file is not trusted.
        discard_generator_fixed_base(*group)
    action = "reported"
    if repair:
        try:
            fs.unlink(path)
            action = "repaired"
            report.repaired += 1
            registry.counter("scrub.repairs").inc()
        except OSError:
            pass
    report.findings.append(
        ScrubFinding(path=path, kind="generator_table", problem=problem, action=action)
    )


def _scrub_segments(
    directory: str,
    fs: FileSystem,
    registry: MetricsRegistry,
    report: ScrubReport,
    skip_paths: frozenset,
) -> None:
    for path in list_segments(directory, fs):
        if path in skip_paths:
            continue
        try:
            records, intact, status = segment_records(path, fs)
            size = fs.getsize(path)
        except FileNotFoundError:
            continue  # retired by a checkpoint mid-scan
        report.files_scanned += 1
        if status == STATUS_CLEAN and intact == size:
            report.records_verified += len(records)
            continue
        report.findings.append(
            ScrubFinding(
                path=path,
                kind="segment",
                problem=f"{status} at byte {intact} (size {size}); "
                "recovery will truncate",
                action="reported",
            )
        )


def _scrub_intents(
    path: str,
    fs: FileSystem,
    registry: MetricsRegistry,
    report: ScrubReport,
) -> None:
    if not fs.exists(path):
        return
    records, scan = IntentJournal.scan(path, repair=False, fs=fs)
    report.files_scanned += 1
    if scan.status == STATUS_CLEAN:
        report.records_verified += scan.records
        return
    report.findings.append(
        ScrubFinding(
            path=path,
            kind="intents",
            problem=f"{scan.status} tail ({scan.truncated_bytes} byte(s)); "
            "recovery will truncate",
            action="reported",
        )
    )


def scrub_directory(
    directory: str,
    *,
    repair: bool = True,
    fs: FileSystem | None = None,
    registry: MetricsRegistry | None = None,
    skip_paths: frozenset | set | tuple = (),
    skip_newest_checkpoint: bool = False,
) -> ScrubReport:
    """One full scrub pass over *directory* (sharded layouts included).

    With ``repair=True`` (the default) rotted checkpoints are rebuilt from
    their mirrors and doubly-rotted pairs quarantined; ``repair=False`` is
    a pure audit.  *skip_paths* names files to leave alone (a live WAL's
    active segment); *skip_newest_checkpoint* additionally skips the
    newest primary/mirror pair per directory — the background scrubber
    sets both, an offline ``--scrub`` neither.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    registry = registry if registry is not None else get_metrics()
    skip = frozenset(skip_paths)
    start = perf_counter()
    report = ScrubReport()
    targets = [directory] + list_shard_directories(directory, fs)
    report.directories = tuple(targets)
    _scrub_generator_table(directory, targets, fs, registry, report, repair)
    for target in targets:
        _scrub_checkpoints(
            target, fs, registry, report, repair, skip_newest_checkpoint
        )
        _scrub_segments(target, fs, registry, report, skip)
    intents = os.path.join(directory, INTENT_JOURNAL_NAME)
    if intents not in skip:
        _scrub_intents(intents, fs, registry, report)
    report.duration_seconds = perf_counter() - start
    registry.counter("scrub.runs").inc()
    registry.counter("scrub.files_scanned").inc(report.files_scanned)
    registry.counter("scrub.records_verified").inc(report.records_verified)
    if report.findings:
        registry.counter("scrub.damage_found").inc(len(report.findings))
    return report


class BackgroundScrubber:
    """A daemon thread that scrubs a live session's directory on a cadence.

    Owned by :class:`~repro.db.wal.manager.DurabilityManager` when
    ``DurabilityConfig.scrub_interval > 0``.  Each pass skips whatever
    *skip_fn* returns at that moment (the active segment) plus the newest
    checkpoint pair, so it never fights the writer; everything it finds
    lands on :attr:`last_report` and the ``scrub.*`` counters.  A pass
    that blows up is counted (``scrub.errors``) and the loop continues —
    a scrubber must never take the database down.
    """

    def __init__(
        self,
        directory: str,
        interval: float,
        *,
        fs: FileSystem | None = None,
        registry: MetricsRegistry | None = None,
        skip_fn=None,
        repair: bool = True,
    ):
        self.directory = directory
        self.interval = interval
        self.fs = fs if fs is not None else OS_FILESYSTEM
        self.registry = registry if registry is not None else get_metrics()
        self.skip_fn = skip_fn if skip_fn is not None else (lambda: ())
        self.repair = repair
        self.last_report: ScrubReport | None = None
        self.passes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="litmus-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def scrub_now(self) -> ScrubReport:
        """One synchronous pass (also what the loop calls)."""
        report = scrub_directory(
            self.directory,
            repair=self.repair,
            fs=self.fs,
            registry=self.registry,
            skip_paths=frozenset(self.skip_fn()),
            skip_newest_checkpoint=True,
        )
        self.last_report = report
        self.passes += 1
        return report

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrub_now()
            except Exception:
                self.registry.counter("scrub.errors").inc()
