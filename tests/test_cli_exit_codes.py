"""CLI exit-code hardening: operator mistakes exit 2 with a one-line
message — never a traceback, never a silent 0.

Exit-code contract (module docstring of :mod:`repro.cli`): 0 success,
2 usage/configuration error, 3 infeasible routing, 4 search budget
exhausted.  These tests pin the *error paths*; happy paths live with
their verbs' own suites.
"""

from __future__ import annotations

import pytest

from repro.cli import main

SIM_VERBS = ["simulate", "faults", "mixed"]


def _one_line_error(capsys) -> str:
    """Assert stderr is a short diagnostic (no traceback) and return it."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert 1 <= len(lines) <= 2  # message (+ optional one-line hint)
    return lines[0]


class TestBadEngine:
    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_exit_2(self, verb, capsys):
        # no verb takes an engine: the run picks it
        with pytest.raises(SystemExit) as exc_info:
            main([verb, "--engine", "dense"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --engine dense" in capsys.readouterr().err


class TestInvalidSimConfig:
    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_negative_messages(self, verb, capsys):
        assert main([verb, "--messages", "-5"]) == 2
        assert "num_messages" in _one_line_error(capsys)

    @pytest.mark.parametrize("verb", SIM_VERBS)
    def test_nonpositive_interarrival(self, verb, capsys):
        assert main([verb, "--interarrival-us", "-1"]) == 2
        assert "mean_interarrival" in _one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["simulate", "mixed"])
    def test_more_dests_than_nodes(self, verb, capsys):
        # a 2x2 mesh has 3 nodes besides the source, so rejection
        # sampling could never draw 4 distinct destinations
        assert main([verb, "--topology", "mesh:2x2", "--dests", "4",
                     "--messages", "10"]) == 2
        assert "4 destinations" in _one_line_error(capsys)

    @pytest.mark.parametrize("supervision", [[], ["--job-timeout", "30"]],
                             ids=["in-process", "supervised"])
    def test_faults_more_dests_than_nodes(self, supervision, capsys):
        # the sweep jobs refuse the count when they are built, so both
        # sweep executions exit 2 before any job runs
        assert main(["faults", "--topology", "mesh:3x3", "--dests", "9",
                     "--replications", "1", "--fault-rates", "0",
                     "--schemes", "dual-path", *supervision]) == 2
        assert "9 destinations" in _one_line_error(capsys)

    def test_faults_on_fault_blind_scheme(self, capsys):
        # vct-tree has no fault-aware worm: its zero-rate point could
        # run, but a faulted point would report every fault harmless
        assert main(["faults", "--schemes", "vct-tree", "--fault-rates", "0,0.15",
                     "--messages", "20", "--replications", "1"]) == 2
        assert "fault-aware" in _one_line_error(capsys)


class TestFaultsFailingJob:
    def test_both_executions_record_it(self, capsys):
        # the single-channel X-first tree wedges the 4x4 mesh: each
        # sweep execution records the failed job as a NaN row and a
        # warning, and exits 0
        argv = ["faults", "--schemes", "xfirst-tree", "--topology", "mesh:4x4",
                "--fault-rates", "0", "--messages", "50", "--replications", "1"]
        rows = []
        for supervision in ([], ["--job-timeout", "30"]):
            assert main(argv + supervision) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            assert "DeadlockDetected" in captured.err
            rows.append(captured.out)
        assert rows[0] == rows[1]
        (row,) = [ln for ln in rows[0].splitlines() if ln.startswith("xfirst-tree")]
        assert row.split()[:4] == ["xfirst-tree", "0", "nan", "nan"]


class TestUnknownScheme:
    def test_simulate(self, capsys):
        assert main(["simulate", "--scheme", "nope"]) == 2
        assert "nope" in _one_line_error(capsys)

    def test_route(self, capsys):
        # route validates --algorithm through argparse choices, so the
        # rejection happens before dispatch — still exit 2
        with pytest.raises(SystemExit) as exc_info:
            main(["route", "--topology", "mesh:4x4", "--algorithm", "nope",
                  "--source", "0,0", "--dest", "1,1"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestModelcheckOnly:
    def test_unknown_machine_exits_2(self, capsys):
        assert main(["modelcheck", "--only", "nope", "--out", ""]) == 2
        assert "unknown machine 'nope'" in _one_line_error(capsys)

    def test_known_machine_exits_0(self, tmp_path, capsys):
        out = str(tmp_path / "certs")
        assert main(["modelcheck", "--only", "circuit-breaker", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "circuit-breaker" in stdout
        assert "1 machines verified, 0 violations" in stdout

    def test_only_is_repeatable(self, capsys):
        assert (
            main(["modelcheck", "--only", "circuit-breaker",
                  "--only", "worker-heartbeat", "--out", ""])
            == 0
        )
        assert "2 machines verified" in capsys.readouterr().out


class TestCertifyOnly:
    def test_unknown_scheme_exits_2(self, capsys):
        assert main(["certify", "--only", "nope"]) == 2
        assert "nope" in _one_line_error(capsys)

    def test_only_aliases_scheme(self, tmp_path, capsys):
        out = str(tmp_path / "certs")
        assert main(["certify", "--only", "dual-path", "--out", out]) == 0
        assert "dual-path" in capsys.readouterr().out


class TestServeConfig:
    def test_invalid_worker_count(self, tmp_path, capsys):
        sock = str(tmp_path / "svc.sock")
        assert main(["serve", "--socket", sock, "--workers", "0"]) == 2
        assert "workers" in _one_line_error(capsys)

    def test_invalid_chaos_rates(self, tmp_path, capsys):
        sock = str(tmp_path / "svc.sock")
        assert (
            main(["serve", "--socket", sock, "--chaos-kill", "0.9",
                  "--chaos-drop", "0.9"])
            == 2
        )
        assert "rates sum" in _one_line_error(capsys)
