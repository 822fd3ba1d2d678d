"""Tests for the hardened sweep runner: typed empty-pool errors,
failure isolation (exceptions, crashes, timeouts), and crash-safe
checkpoint/resume."""

from __future__ import annotations

import json
import os
from pathlib import Path
import signal
import subprocess
import sys
import time

import pytest

from repro.parallel import (
    JobFailure,
    NoResultsError,
    SweepError,
    SweepJob,
    SweepStats,
    pooled_latency,
    replicate,
    run_sweep,
)
from repro.parallel import _job_key, _result_from_json, _result_to_json
from repro.sim import SimConfig, FaultResult, SimStats, Summary
from repro.sim.runner import DynamicResult
from repro.topology import Hypercube, Mesh2D

MESH = Mesh2D(4, 4)
CFG = SimConfig(num_messages=80, seed=3)


def _jobs(n=4, runner="dynamic", **kw):
    return replicate(SweepJob(MESH, "dual-path", CFG.replace(**kw), runner), n)


def _deadlock_job():
    """An e-cube tree job that wedges the single-channel 3-cube."""
    return SweepJob(
        Hypercube(3),
        "ecube-tree",
        SimConfig(num_messages=60, seed=1, num_destinations=7, mean_interarrival=20e-6),
    )


#: run_sweep options selecting each execution
EXECUTIONS = {"in-process": {"workers": 1}, "supervised": {"workers": 1, "timeout": 120}}


class TestSweepJobValidation:
    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown runner"):
            SweepJob(MESH, "dual-path", CFG, "turbo")

    def test_resilient_runner_dispatches(self):
        (result,) = run_sweep(_jobs(1, runner="resilient"), workers=1)
        assert isinstance(result, FaultResult)
        assert result.delivery_ratio == 1.0


class TestNoResultsError:
    def test_empty_input(self):
        with pytest.raises(NoResultsError):
            pooled_latency([])

    def test_all_none_carries_failures(self):
        failure = JobFailure(0, _jobs(1)[0], "boom", 2)
        with pytest.raises(NoResultsError) as exc_info:
            pooled_latency([None, None], [failure])
        assert exc_info.value.failures == (failure,)

    def test_is_a_value_error(self):
        # backwards compatible with callers catching the old ValueError
        with pytest.raises(ValueError):
            pooled_latency([])

    def test_none_entries_skipped(self):
        results = run_sweep(_jobs(2), workers=1)
        pooled = pooled_latency([None, results[0], results[1]])
        assert pooled == pooled_latency(results)


class TestFailureIsolation:
    def test_exception_recorded_not_raised(self):
        """A job that dies in-simulation (deadlock) is isolated to a
        failure record; its siblings still complete."""
        cube = Hypercube(3)
        deadlock = SweepJob(
            cube,
            "ecube-tree",
            SimConfig(num_messages=60, seed=1, num_destinations=7,
                      mean_interarrival=20e-6),
        )
        good = _jobs(2)
        failures: list = []
        results = run_sweep(
            [good[0], deadlock, good[1]],
            workers=2,
            retries=1,  # engage the supervised path
            on_error="record",
            failures=failures,
        )
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        (failure,) = failures
        assert failure.index == 1
        assert "DeadlockDetected" in failure.error
        assert failure.attempts == 2  # retried once, still failed

    def test_exception_raises_sweep_error_by_default(self):
        cube = Hypercube(3)
        deadlock = SweepJob(
            cube,
            "ecube-tree",
            SimConfig(num_messages=60, seed=1, num_destinations=7,
                      mean_interarrival=20e-6),
        )
        with pytest.raises(SweepError, match="DeadlockDetected"):
            run_sweep([deadlock], timeout=120)

    def test_timeout_terminates_runaway_job(self):
        runaway = SweepJob(MESH, "dual-path", CFG.replace(num_messages=10_000_000))
        failures: list = []
        start = time.monotonic()
        results = run_sweep(
            [runaway], timeout=0.5, on_error="record", failures=failures
        )
        assert time.monotonic() - start < 30
        assert results == [None]
        assert "timed out" in failures[0].error

    def test_result_then_immediate_exit_is_completed(self, monkeypatch):
        """A job process that sends its result and exits at once is
        recorded as completed, never as a crash: the payload and the
        end-of-file arrive on one pipe, in that order."""
        import repro.parallel as parallel

        jobs = _jobs(12)
        expected = run_sweep(jobs, workers=1)
        by_seed = {job.config.seed: r for job, r in zip(jobs, expected)}

        def send_and_exit(job, conn):
            # no simulation: the payload and the exit land together
            conn.send((True, by_seed[job.config.seed]))
            os._exit(0)

        monkeypatch.setattr(parallel, "_job_worker", send_and_exit)
        stats = SweepStats()
        results = run_sweep(jobs, workers=2, retries=1, timeout=60, stats=stats)
        assert results == expected
        assert (stats.completed, stats.attempts, stats.crashes, stats.retries) == (12, 12, 0, 0)

    def test_worker_crash_isolated(self, monkeypatch):
        """A worker that dies without raising (segfault/OOM stand-in:
        os._exit) becomes a failure record, not a hung sweep."""
        import repro.parallel as parallel

        real = parallel._run_job
        crash_seed = _jobs(3)[1].config.seed

        def crashy(job):
            if job.config.seed == crash_seed:
                os._exit(42)
            return real(job)

        # fork-context workers inherit the patched module
        monkeypatch.setattr(parallel, "_run_job", crashy)
        failures: list = []
        results = run_sweep(
            _jobs(3), workers=2, retries=0, timeout=60,
            on_error="record", failures=failures,
        )
        assert [r is None for r in results] == [False, True, False]
        assert "exit code 42" in failures[0].error


class TestCheckpointResume:
    def test_checkpoint_written_durably(self, tmp_path):
        ck = str(tmp_path / "sweep.jsonl")
        jobs = _jobs(3)
        results = run_sweep(jobs, workers=1, checkpoint=ck)
        records = [json.loads(line) for line in Path(ck).read_text().splitlines()]
        assert sorted(r["index"] for r in records) == [0, 1, 2]
        for record in records:
            assert record["key"] == _job_key(jobs[record["index"]])
            assert _result_from_json(record["result"]) == results[record["index"]]

    def test_resume_skips_checkpointed_jobs(self, tmp_path, monkeypatch):
        """The crash-recovery contract: after a partial run, resuming
        re-runs only the missing jobs."""
        import repro.parallel as parallel

        ck = str(tmp_path / "sweep.jsonl")
        marker = str(tmp_path / "ran.log")
        jobs = _jobs(5)

        run_sweep(jobs[:2] + [jobs[2]], workers=1, checkpoint=ck)  # 3 done
        assert len(Path(ck).read_text().splitlines()) == 3

        real = parallel._run_job

        def counting(job):
            with open(marker, "a") as fh:
                fh.write(f"{job.config.seed}\n")
                fh.flush()
                os.fsync(fh.fileno())
            return real(job)

        monkeypatch.setattr(parallel, "_run_job", counting)
        results = run_sweep(jobs, workers=2, checkpoint=ck, resume=True)
        assert all(r is not None for r in results)
        ran = {int(s) for s in Path(marker).read_text().split()}
        # exactly the two non-checkpointed replications ran
        assert ran == {jobs[3].config.seed, jobs[4].config.seed}
        assert len(Path(ck).read_text().splitlines()) == 5

    def test_resume_ignores_mismatched_and_corrupt_records(self, tmp_path):
        ck = str(tmp_path / "sweep.jsonl")
        jobs = _jobs(2)
        run_sweep(jobs, workers=1, checkpoint=ck)
        lines = Path(ck).read_text().splitlines()
        # a stale record (different config), garbage, and a truncated
        # tail — the signature of a crash mid-write
        stale = json.loads(lines[0])
        stale["key"] = "0" * 16
        with open(ck, "w") as fh:
            fh.write(json.dumps(stale) + "\n")
            fh.write(lines[1] + "\n")
            fh.write("not json at all\n")
            fh.write(lines[1][: len(lines[1]) // 2])  # torn write
        results = run_sweep(jobs, workers=1, checkpoint=ck, resume=True)
        assert all(r is not None for r in results)

    def test_kill_mid_sweep_then_resume(self, tmp_path):
        """End to end: SIGKILL a sweep process mid-run, then resume —
        the checkpointed replications are not re-run and the sweep
        completes."""
        ck = str(tmp_path / "sweep.jsonl")
        marker = str(tmp_path / "ran.log")
        script = f"""
import os, sys
import repro.parallel as parallel
from repro.parallel import SweepJob, replicate, run_sweep
from repro.sim import SimConfig
from repro.topology import Mesh2D

real = parallel._run_job
def counting(job):
    with open({marker!r}, "a") as fh:
        fh.write(f"{{job.config.seed}}\\n"); fh.flush(); os.fsync(fh.fileno())
    return real(job)
parallel._run_job = counting

jobs = replicate(SweepJob(Mesh2D(5, 5), "dual-path",
                          SimConfig(num_messages=600, seed=3)), 6)
results = run_sweep(jobs, workers=1, checkpoint={ck!r},
                    resume="--resume" in sys.argv)
assert all(r is not None for r in results), results
print("COMPLETE", sum(1 for r in results if r is not None))
"""
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")

        victim = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(ck) and len(Path(ck).read_text().splitlines()) >= 2:
                break
            if victim.poll() is not None:
                pytest.fail("sweep finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("checkpoint never appeared")
        victim.send_signal(signal.SIGKILL)
        victim.wait()

        done_before = len(Path(ck).read_text().splitlines())
        assert done_before >= 2
        seeds_before = {int(s) for s in Path(marker).read_text().split()}

        resumed = subprocess.run(
            [sys.executable, "-c", script, "--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "COMPLETE 6" in resumed.stdout
        # checkpointed replications were NOT re-run after the kill
        seeds_after = {int(s) for s in Path(marker).read_text().split()}
        rerun = seeds_after - seeds_before
        assert len(seeds_after) <= 6
        checkpointed = {
            json.loads(line)["index"] for line in Path(ck).read_text().splitlines() if line.strip()
        }
        assert checkpointed == set(range(6))
        assert len(rerun) <= 6 - done_before


class TestSweepStatsAccounting:
    def test_sigkill_victim_counted_and_checkpoint_consistent(
        self, tmp_path, monkeypatch
    ):
        """The audit the issue asks for: SIGKILL one worker mid-job and
        check the ledger balances — the crash shows up in ``crashes``,
        the granted re-run in ``retries``, ``attempts`` = first tries +
        retries, and the checkpoint holds exactly one record per job."""
        import repro.parallel as parallel

        ck = str(tmp_path / "sweep.jsonl")
        marker = str(tmp_path / "died-once")
        jobs = _jobs(3)
        victim_seed = jobs[1].config.seed
        real = parallel._run_job

        def kill_once(job):
            if job.config.seed == victim_seed and not os.path.exists(marker):
                # the marker is written *before* dying so only the first
                # attempt is sabotaged; SIGKILL leaves no exit handler a
                # chance — the supervisor sees a silent death
                with open(marker, "w") as fh:
                    fh.write("x")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.kill(os.getpid(), signal.SIGKILL)
            return real(job)

        monkeypatch.setattr(parallel, "_run_job", kill_once)
        stats = SweepStats()
        results = run_sweep(
            jobs, workers=2, retries=1, timeout=60, checkpoint=ck, stats=stats
        )
        assert all(r is not None for r in results)
        assert stats.completed == 3
        assert stats.crashes == 1
        assert stats.retries == 1
        assert stats.attempts == 4  # 3 first tries + 1 granted re-run
        assert stats.resumed == 0
        assert stats.timeouts == 0
        assert stats.errors == 0
        assert stats.failed_jobs == 0
        # the kill must not have torn the checkpoint: one durable record
        # per job, none for the killed attempt
        records = [json.loads(line) for line in Path(ck).read_text().splitlines()]
        assert sorted(r["index"] for r in records) == [0, 1, 2]

        # resume replays everything from the checkpoint: no processes
        # launched, and the ledger says so
        stats2 = SweepStats()
        resumed = run_sweep(
            jobs, workers=2, retries=1, checkpoint=ck, resume=True, stats=stats2
        )
        assert resumed == results
        assert stats2.resumed == 3
        assert stats2.attempts == 0
        assert stats2.completed == 0

    def test_clean_sweep_ledger(self):
        stats = SweepStats()
        run_sweep(_jobs(3), workers=2, retries=1, stats=stats)
        assert stats.to_dict() == {
            "attempts": 3,
            "completed": 3,
            "resumed": 0,
            "retries": 0,
            "timeouts": 0,
            "crashes": 0,
            "errors": 0,
            "failed_jobs": 0,
        }


class TestSerialization:
    def test_dynamic_result_roundtrip(self):
        result = DynamicResult(
            latency=Summary(1.5e-5, 2e-7, 900, 10),
            injected_messages=100,
            deliveries=1000,
            sim_time=0.01,
            worms=180,
        )
        assert _result_from_json(_result_to_json(result)) == result

    def test_fault_result_roundtrip(self):
        result = FaultResult(
            latency=Summary(1.5e-5, 2e-7, 900, 10),
            injected_messages=100,
            deliveries=950,
            sim_time=0.01,
            worms=200,
            stats=SimStats(delivered=950, dropped=50, retries=7, killed_worms=12),
            expected_deliveries=1000,
        )
        assert _result_from_json(_result_to_json(result)) == result

    def test_job_key_sensitivity(self):
        a = SweepJob(MESH, "dual-path", CFG)
        assert _job_key(a) == _job_key(SweepJob(MESH, "dual-path", CFG))
        assert _job_key(a) != _job_key(SweepJob(MESH, "fixed-path", CFG))
        assert _job_key(a) != _job_key(SweepJob(MESH, "dual-path", CFG, "resilient"))
        assert _job_key(a) != _job_key(
            SweepJob(MESH, "dual-path", CFG.replace(seed=4))
        )
        assert _job_key(a) != _job_key(SweepJob(Mesh2D(4, 5), "dual-path", CFG))


class TestParityWithFastPath:
    def test_supervised_matches_in_process(self):
        """The supervised execution returns bit-identical results to the
        in-process loop (same jobs, same order)."""
        jobs = _jobs(4)
        in_process = run_sweep(jobs, workers=1)
        supervised = run_sweep(jobs, workers=2, retries=1)
        assert in_process == supervised

    def test_failing_job_recorded_alike(self):
        """A job that raises gets the same ``None`` result, failure
        record and ledger in process as under the supervisor."""
        jobs = [_jobs(1)[0], _deadlock_job(), _jobs(2)[1]]
        outcomes = []
        for options in EXECUTIONS.values():
            failures: list = []
            stats = SweepStats()
            results = run_sweep(
                jobs, on_error="record", failures=failures, stats=stats, **options
            )
            outcomes.append((results, failures, stats))
        in_process, supervised = outcomes
        assert in_process == supervised
        results, (failure,), stats = in_process
        assert results[1] is None and None not in (results[0], results[2])
        assert (failure.index, failure.attempts) == (1, 1)
        assert failure.error.startswith("DeadlockDetected: ")
        assert stats == SweepStats(attempts=3, completed=2, errors=1, failed_jobs=1)

    @pytest.mark.parametrize("options", EXECUTIONS.values(), ids=EXECUTIONS)
    def test_failing_job_raises_after_the_sweep(self, options):
        stats = SweepStats()
        with pytest.raises(SweepError, match="DeadlockDetected") as info:
            run_sweep([_deadlock_job(), _jobs(1)[0]], stats=stats, **options)
        assert [f.index for f in info.value.failures] == [0]
        assert stats.completed == 1  # the job after the failure still ran
