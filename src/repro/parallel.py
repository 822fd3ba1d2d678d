"""Parallel experiment runner for the §7.2 dynamic study.

The dissertation's dynamic evaluation sweeps load × destination-set
size × routing scheme, one CSIM run per point.  Each point is an
independent simulation fully determined by its :class:`SweepJob` —
topology, scheme, runner and :class:`SimConfig`, including its RNG
seed — so :func:`run_sweep` returns the result of every job *in job
order*, bit-for-bit identical to running the same jobs serially
(worker placement never touches a simulation's RNG).

Deterministic replication seeds come from :func:`derive_seed`, a
splitmix64 mix of a base seed and the run index, so replication ``i``
of a sweep is reproducible regardless of how many workers ran it or in
which order jobs completed.

Executions
----------

:func:`run_sweep` has two.  ``workers`` is first capped at
``os.cpu_count()``: more processes than cores only add fork and
scheduling cost.

* **In process.**  With one worker (or one job) and none of the
  robustness options below, the jobs run in a plain loop in the
  calling process.  A job that raises is one failed attempt, handled
  under ``on_error`` exactly as the supervised execution handles it.
* **Supervised.**  Otherwise every attempt of a job runs in its own
  forked process, at most ``workers`` at a time.  Each attempt gets
  one pipe whose only write end the job process holds, and the
  supervisor blocks in :func:`multiprocessing.connection.wait` until
  the nearest job deadline.  A result and a death both arrive as one
  readable event — a payload, or end-of-file — so a worker crash,
  hang or out-of-memory kill is isolated to its own job.  A finished
  job's process is joined before the next attempt starts.

Robustness
----------

Long sweeps (the fault-degradation study runs hundreds of
replications) need to survive slow points, crashing workers, and being
killed outright, so :func:`run_sweep` also accepts:

* ``timeout`` — per-job wall-clock limit; a job over budget is
  terminated and recorded as failed (it never stalls the sweep);
* ``retries`` — failed jobs (timeout or crash) are re-run up to this
  many extra times before being declared failed;
* ``checkpoint``/``resume`` — every completed result is appended to a
  JSONL file (flushed and fsynced, so a ``kill -9`` loses at most the
  in-flight jobs); ``resume=True`` reloads matching records and only
  runs the jobs that are missing.

Any of them selects the supervised execution.  Under either execution,
``on_error="record"`` turns failures into ``None`` results plus
:class:`JobFailure` records instead of raising :class:`SweepError`.

Usage::

    from repro.parallel import SweepJob, run_sweep
    jobs = [SweepJob(mesh, "dual-path", cfg.replace(seed=s)) for s in seeds]
    results = run_sweep(jobs, workers=4)
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from math import sqrt
from multiprocessing.connection import wait
from collections.abc import Iterable, Sequence
from typing import Any

from .registry import get as get_spec
from .retry import derive_seed
from .sim.config import SimConfig
from .sim.runner import (
    DynamicResult,
    FaultResult,
    check_destination_count,
    check_dynamic_run,
    check_resilient_run,
    run_dynamic,
    run_resilient,
)
from .sim.stats import SimStats, Summary
from .topology.base import Topology

__all__ = [
    "JobFailure",
    "NoResultsError",
    "SweepError",
    "SweepJob",
    "SweepStats",
    "derive_seed",
    "kill_process",
    "replicate",
    "run_sweep",
    "pooled_latency",
]


@dataclass
class SweepStats:
    """Attempt/retry/timeout accounting for one :func:`run_sweep` call.

    Pass an instance as ``stats=`` to observe what the supervised
    execution actually did — before this existed, retries that
    eventually *succeeded* were invisible (only terminal failures
    surfaced, as :class:`JobFailure` records), so a sweep that silently
    burned its retry budget looked identical to a clean one.

    ``attempts`` counts worker processes launched; ``resumed`` counts
    results served from the checkpoint instead of being re-run;
    ``retries`` counts re-runs granted after a failed attempt
    (``attempts`` = first tries + retries); ``timeouts`` / ``crashes``
    / ``errors`` classify the failed attempts (over-budget, died
    without reporting, raised in-worker); ``completed`` and
    ``failed_jobs`` partition the jobs' terminal outcomes.
    """

    attempts: int = 0
    completed: int = 0
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    failed_jobs: int = 0

    def to_dict(self) -> dict[str, int]:
        from dataclasses import asdict

        return asdict(self)


# ----------------------------------------------------------------------
# Worker-lifecycle helpers, shared with the routing service's
# supervisor (repro.service.supervisor): the sweep runner and the
# service pool kill and reap workers the same way.
# ----------------------------------------------------------------------


def kill_process(process, *, hard: bool = False) -> int | None:
    """Stop a worker process (SIGTERM, or SIGKILL with ``hard=True``
    for hung workers that may ignore termination), join it, and return
    its exit code."""
    if process.is_alive():
        if hard:
            process.kill()
        else:
            process.terminate()
    process.join()
    return process.exitcode


@dataclass(frozen=True)
class SweepJob:
    """One dynamic-simulation point of a sweep.

    The scheme name is checked against :mod:`repro.registry` at
    construction, so a typo or a non-simulable scheme fails in the
    driving process before any worker fans out.  ``runner`` selects the
    driver: ``"dynamic"`` (:func:`repro.sim.runner.run_dynamic`, on the
    engine the run picks — the decision lands in
    ``result.engine_stats["auto"]``) or ``"resilient"``
    (:func:`repro.sim.runner.run_resilient`, fault injection + retry on
    the fault-aware reference network).  A dynamic job is checked by
    :func:`repro.sim.runner.check_dynamic_run` at construction, so
    fault rates fail here; a resilient one by
    :func:`repro.sim.runner.check_resilient_run`, so fault rates on a
    scheme without a fault-aware worm fail here too.  Either runner
    refuses more destinations than the topology has nodes besides the
    source (:func:`repro.sim.runner.check_destination_count`)."""

    topology: Topology
    scheme: str
    config: SimConfig
    runner: str = "dynamic"

    def __post_init__(self):
        spec = get_spec(self.scheme)  # raises UnknownSchemeError on typos
        if not spec.simulable:
            raise ValueError(
                f"scheme {self.scheme!r} is {spec.kind} and cannot be "
                f"simulated by the dynamic study"
            )
        if not spec.supports(self.topology):
            raise ValueError(
                f"{spec.name} is not defined on {self.topology} "
                f"(supported families: {', '.join(spec.topologies)})"
            )
        if self.runner == "dynamic":
            check_dynamic_run(spec, self.config)
        elif self.runner != "resilient":
            raise ValueError(
                f"unknown runner {self.runner!r} (expected 'dynamic' or 'resilient')"
            )
        else:
            check_resilient_run(spec, self.config)
        check_destination_count(self.topology, self.config.num_destinations)


@dataclass(frozen=True)
class JobFailure:
    """Why one sweep job produced no result."""

    index: int
    job: SweepJob
    error: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"job {self.index} ({self.job.scheme} on {self.job.topology}) "
            f"failed after {self.attempts} attempt(s): {self.error}"
        )


class SweepError(RuntimeError):
    """One or more sweep jobs failed (``on_error="raise"``).

    ``failures`` holds a :class:`JobFailure` per failed job."""

    def __init__(self, failures: Sequence[JobFailure]):
        self.failures = tuple(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(f"{len(self.failures)} sweep job(s) failed:\n  {lines}")


class NoResultsError(ValueError):
    """Every replication of a sweep point failed, so there is nothing
    to pool.  ``failures`` carries the per-job failure records (empty
    when the caller didn't collect any)."""

    def __init__(self, message: str, failures: Sequence[JobFailure] = ()):
        super().__init__(message)
        self.failures = tuple(failures)


def replicate(config, num_runs: int):
    """``num_runs`` copies of ``config`` — a :class:`SimConfig` or a
    whole :class:`SweepJob` — with deterministic per-run seeds derived
    from the config's seed."""
    if isinstance(config, SweepJob):
        return [
            SweepJob(config.topology, config.scheme, c, config.runner)
            for c in replicate(config.config, num_runs)
        ]
    return [
        config.replace(seed=derive_seed(config.seed, i)) for i in range(num_runs)
    ]


def _run_job(job: SweepJob):
    if job.runner == "resilient":
        return run_resilient(job.topology, job.scheme, job.config)
    return run_dynamic(job.topology, job.scheme, job.config)


# ----------------------------------------------------------------------
# Checkpoint (de)serialization.  Results are plain dataclasses of
# floats/ints, so JSONL keeps checkpoints human-inspectable and immune
# to pickle-versioning; every record carries a hash of its job so a
# resume against different jobs skips nothing it shouldn't.
# ----------------------------------------------------------------------


def _job_key(job: SweepJob) -> str:
    """A stable fingerprint of everything that determines a job's
    result (topology identity, scheme, runner, full config)."""
    from dataclasses import asdict

    fields = [repr(job.topology), job.scheme, job.runner, asdict(job.config)]
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _summary_to_json(s: Summary) -> dict:
    return {
        "mean": s.mean,
        "ci_halfwidth": s.ci_halfwidth,
        "num_observations": s.num_observations,
        "num_batches": s.num_batches,
    }


def _result_to_json(result) -> dict:
    data: dict[str, Any]
    if isinstance(result, FaultResult):
        data = {
            "type": "fault",
            "stats": result.stats.to_dict(),
            "expected_deliveries": result.expected_deliveries,
        }
    elif isinstance(result, DynamicResult):
        data = {"type": "dynamic"}
    else:
        raise TypeError(f"cannot checkpoint result of type {type(result).__name__}")
    data.update(
        latency=_summary_to_json(result.latency),
        injected_messages=result.injected_messages,
        deliveries=result.deliveries,
        sim_time=result.sim_time,
        worms=result.worms,
        engine=result.engine,
        engine_stats=result.engine_stats,
    )
    return data


def _engine_stats_from_json(stats: dict | None) -> dict | None:
    """JSON turned the int keys of ``window_hist``, in records a dense
    run wrote before that engine was removed, into strings; turn them
    back, so such a checkpoint resumes to the result it recorded."""
    if stats and "window_hist" in stats:
        stats["window_hist"] = {int(k): v for k, v in stats["window_hist"].items()}
    return stats


def _result_from_json(data: dict):
    common: dict[str, Any] = dict(
        latency=Summary(**data["latency"]),
        injected_messages=data["injected_messages"],
        deliveries=data["deliveries"],
        sim_time=data["sim_time"],
        worms=data["worms"],
        # records written before the engine fields existed load with
        # the dataclass defaults
        engine=data.get("engine", "reference"),
        engine_stats=_engine_stats_from_json(data.get("engine_stats")),
    )
    if data["type"] == "fault":
        return FaultResult(
            stats=SimStats.from_dict(data["stats"]),
            expected_deliveries=data["expected_deliveries"],
            **common,
        )
    if data["type"] == "dynamic":
        return DynamicResult(**common)
    raise ValueError(f"unknown checkpoint result type {data['type']!r}")


def _load_checkpoint(path: str, jobs: Sequence[SweepJob]) -> dict:
    """Results recorded for *these* jobs in a previous (possibly
    killed) sweep.  Unparseable or truncated trailing lines — the
    signature of a crash mid-write — are ignored, as are records whose
    job fingerprint doesn't match."""
    done: dict[int, object] = {}
    if not os.path.exists(path):
        return done
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = record["index"]
                if not isinstance(index, int):
                    continue
                if 0 <= index < len(jobs) and record["key"] == _job_key(jobs[index]):
                    done[index] = _result_from_json(record["result"])
            except (ValueError, KeyError, TypeError):
                continue
    return done


def _append_checkpoint(fh, index: int, job: SweepJob, result) -> None:
    fh.write(
        json.dumps(
            {"index": index, "key": _job_key(job), "result": _result_to_json(result)}
        )
        + "\n"
    )
    fh.flush()
    os.fsync(fh.fileno())


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: int | None = None,
    *,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint: str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    failures: list | None = None,
    stats: SweepStats | None = None,
) -> list:
    """Run every :class:`SweepJob` and return its result, in job order.

    ``workers`` defaults to ``os.cpu_count()`` and is capped there.  One
    worker (or one job) with none of the robustness options below runs
    the jobs in a loop in this process; anything else runs the
    supervised execution, one forked process per attempt (see the
    module docstring).  Both are bit-for-bit identical to a serial run:
    every simulation is seeded by its own config and shares no state
    with its siblings.

    Robustness options (any of them selects the supervised execution):

    ``timeout``
        per-job wall-clock budget in seconds; over-budget jobs are
        terminated and treated as failed attempts.
    ``retries``
        extra attempts granted to a failed (timed-out or crashed) job.
    ``checkpoint`` / ``resume``
        JSONL file completed results are durably appended to; with
        ``resume=True`` previously recorded results for identical jobs
        are reused instead of re-run.
    ``on_error``
        ``"raise"`` (default): any job still failing after its retries
        raises :class:`SweepError` once the sweep finishes (completed
        work is still checkpointed).  ``"record"``: failed jobs yield
        ``None`` results and a :class:`JobFailure` appended to
        ``failures``.
    ``failures``
        optional list collecting :class:`JobFailure` records under
        either ``on_error`` policy.
    ``stats``
        optional :class:`SweepStats` populated with attempt/retry/
        timeout/crash accounting.

    ``on_error``, ``failures`` and ``stats`` apply to both executions:
    in process, a job that raises is one failed attempt (an error),
    recorded exactly as the supervised execution records it.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"unknown on_error policy {on_error!r}")
    jobs = list(jobs)
    cpus = os.cpu_count() or 1
    workers = max(1, min(cpus if workers is None else workers, cpus))
    supervised = (
        timeout is not None or retries > 0 or checkpoint is not None or resume
    )
    stats = stats if stats is not None else SweepStats()
    if not supervised and (workers == 1 or len(jobs) <= 1):
        return _run_in_process(jobs, on_error=on_error, failures=failures, stats=stats)
    return _run_supervised(
        jobs,
        workers=workers,
        timeout=timeout,
        retries=max(0, retries),
        checkpoint=checkpoint,
        resume=resume,
        on_error=on_error,
        failures=failures,
        stats=stats,
    )


def _run_in_process(
    jobs: Sequence[SweepJob],
    *,
    on_error: str,
    failures: list | None,
    stats: SweepStats,
) -> list:
    """Run the jobs in a loop in this process, one attempt each."""
    results: list = []
    failed: list[JobFailure] = []
    for index, job in enumerate(jobs):
        stats.attempts += 1
        try:
            result = _run_job(job)
        except Exception as exc:  # noqa: BLE001 - one failing job must not end the sweep
            stats.errors += 1
            stats.failed_jobs += 1
            failure = JobFailure(index, job, f"{type(exc).__name__}: {exc}", 1)
            failed.append(failure)
            if failures is not None:
                failures.append(failure)
            result = None
        else:
            stats.completed += 1
        results.append(result)
    if failed and on_error == "raise":
        raise SweepError(failed)
    return results


def _job_worker(job: SweepJob, conn) -> None:
    """Subprocess entry: run one job and send the outcome down ``conn``,
    the only write end of the attempt's pipe.

    Every failure mode that still lets Python run is sent as a
    ``(False, message)`` payload; a hard death (segfault, OOM kill,
    timeout termination) closes the pipe unwritten, and the supervisor
    reads end-of-file instead."""
    try:
        payload = (True, _run_job(job))
    except BaseException as exc:  # noqa: BLE001 - isolate *any* worker failure
        payload = (False, f"{type(exc).__name__}: {exc}")
    with contextlib.suppress(Exception):
        conn.send(payload)  # supervisor gone: nothing left to tell


def _run_supervised(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    timeout: float | None,
    retries: int,
    checkpoint: str | None,
    resume: bool,
    on_error: str,
    failures: list | None,
    stats: SweepStats,
) -> list:
    ctx = _pool_context()
    results: dict[int, object] = {}
    failed: dict[int, JobFailure] = {}

    if checkpoint is not None and resume:
        results.update(_load_checkpoint(checkpoint, jobs))
        stats.resumed = len(results)

    # pop() from the end yields jobs in order
    pending = [(i, 0) for i in reversed(range(len(jobs))) if i not in results]
    # read end of each running attempt's pipe -> (index, attempt,
    # process, deadline)
    running: dict = {}

    def record_failure(index: int, attempt: int, error: str) -> None:
        if attempt < retries:
            stats.retries += 1
            pending.append((index, attempt + 1))
            return
        failure = JobFailure(index, jobs[index], error, attempt + 1)
        failed[index] = failure
        stats.failed_jobs += 1
        if failures is not None:
            failures.append(failure)

    ckpt_fh = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    try:
        while pending or running:
            while pending and len(running) < workers:
                index, attempt = pending.pop()
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_job_worker, args=(jobs[index], writer), daemon=True
                )
                process.start()
                writer.close()  # the job process holds the only write end
                stats.attempts += 1
                deadline = None if timeout is None else time.monotonic() + timeout
                running[reader] = (index, attempt, process, deadline)

            # block until a pipe turns readable or the nearest deadline
            # passes: a payload and a death (end-of-file) are both one
            # readable event
            deadlines = [entry[3] for entry in running.values() if entry[3] is not None]
            wait_s = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            for reader in wait(list(running), wait_s):
                index, attempt, process, _ = running.pop(reader)
                try:
                    outcome = reader.recv()
                except (EOFError, OSError):  # died before a whole payload
                    outcome = None
                reader.close()
                process.join()
                if outcome is None:
                    stats.crashes += 1
                    record_failure(
                        index, attempt, f"worker died (exit code {process.exitcode})"
                    )
                elif outcome[0]:
                    results[index] = outcome[1]
                    stats.completed += 1
                    if ckpt_fh is not None:
                        _append_checkpoint(ckpt_fh, index, jobs[index], outcome[1])
                else:
                    stats.errors += 1
                    record_failure(index, attempt, outcome[1])

            # a pipe that turned readable since the wait is reaped on the
            # next pass, not killed: its payload or death came first
            now = time.monotonic()
            for reader, (index, attempt, process, deadline) in list(running.items()):
                if deadline is not None and now >= deadline and not reader.poll():
                    del running[reader]
                    kill_process(process)
                    reader.close()
                    stats.timeouts += 1
                    record_failure(index, attempt, f"timed out after {timeout:g}s")
    finally:
        for reader, (_, _, process, _) in running.items():
            kill_process(process)
            reader.close()
        if ckpt_fh is not None:
            ckpt_fh.close()

    if failed and on_error == "raise":
        raise SweepError([failed[i] for i in sorted(failed)])
    return [results.get(i) for i in range(len(jobs))]


def _pool_context():
    """Prefer fork (cheap, no re-import) where available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def pooled_latency(
    results: Sequence,
    failures: Sequence[JobFailure] = (),
) -> Summary:
    """Pool the latency estimates of independent replications.

    The pooled mean weights each replication by its observation count;
    the confidence halfwidth combines the replications' halfwidths as
    independent estimates (root-sum-square of observation-weighted
    halfwidths).  This is the standard independent-replications
    estimator (Law & Kelton) the dissertation's §7.2 methodology uses
    across CSIM runs.

    ``None`` entries (failed jobs from ``run_sweep(...,
    on_error="record")``) are skipped; if nothing remains a
    :class:`NoResultsError` is raised carrying ``failures`` so callers
    can report *why* the point is empty.
    """
    results = [r for r in results if r is not None]
    if not results:
        raise NoResultsError("no results to pool", failures)
    weights = [r.latency.num_observations for r in results]
    total = sum(weights)
    if total == 0:
        raise NoResultsError(
            "no observations to pool (all replications delivered nothing)",
            failures,
        )
    mean = sum(w * r.latency.mean for w, r in zip(weights, results)) / total
    halfwidth = (
        sqrt(sum((w * r.latency.ci_halfwidth) ** 2 for w, r in zip(weights, results)))
        / total
    )
    return Summary(
        mean=mean,
        ci_halfwidth=halfwidth,
        num_observations=total,
        num_batches=sum(r.latency.num_batches for r in results),
    )
