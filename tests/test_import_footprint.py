"""Import footprint: NumPy loads only where an array is computed.

The package's figure functions, simulator, CLI, sweeps and routing
service are pure Python; NumPy is needed only by the ``omt``/``steiner``
exact solvers and :meth:`Topology.distance_matrix`.  This process has NumPy loaded
already (other tests use it), so every case runs its snippet in a
fresh interpreter and reads ``"numpy" in sys.modules`` there.

The ``repro.analysis`` and ``repro.exact`` packages resolve their names
on first use, so the same entry points load neither the certifier,
linter and model checker nor any exact solver.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _numpy_loaded_after(snippet: str) -> bool:
    """Run ``snippet`` in a fresh interpreter with the package on its
    path; return whether NumPy was imported by its end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = textwrap.dedent(snippet) + "\nimport sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_package_cli_figures_sweeps_and_service_run_without_numpy():
    assert not _numpy_loaded_after("""
        import contextlib, io
        import repro, repro.cli, repro.experiments, repro.parallel, repro.service, repro.sim
        from repro.cli import main
        from repro.experiments import _algos, _static_sweep
        from repro.sim import SimConfig, run_dynamic, run_resilient
        from repro.topology import Mesh2D

        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            main(["--help"])
        mesh = Mesh2D(4, 4)
        result = run_dynamic(mesh, "dual-path", SimConfig(num_messages=40, seed=1))
        assert result.engine == "reference" and result.deliveries > 0
        faulted = run_resilient(
            mesh, "dual-path", SimConfig(num_messages=40, link_fault_rate=0.1, seed=3)
        )
        assert faulted.stats.link_fault_events > 0
        algos = _algos({"sorted-MP": "sorted-mp", "multi-unicast": "multi-unicast"})
        assert len(_static_sweep(Mesh2D(8, 8), algos, (5,), 1)) == 1
    """)


def test_sim_zero_load_cells_run_without_numpy():
    """The light-load, long-route cells of the sim-zero-load workload,
    on the default ``engine="auto"``, at a reduced message count."""
    assert not _numpy_loaded_after("""
        from repro.cli import parse_topology
        from repro.sim import SimConfig, run_dynamic

        base = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True,
                    mean_interarrival=0.36, channels_per_link=2, num_messages=40)
        for spec, k, seed in (("cube:10", 8, 29), ("cube:10", 32, 29), ("mesh:32x32", 16, 31)):
            cfg = SimConfig(**base, num_destinations=k, seed=seed)
            assert run_dynamic(parse_topology(spec), "fixed-path", cfg).deliveries == 40 * k
    """)


def test_entry_points_load_no_certifier_linter_model_checker_or_exact_solver():
    """``repro.analysis`` and ``repro.exact`` resolve their names on first
    use: the wormhole CDG code's ``analysis.graph`` and the CLI's and
    workers' ``exact.errors`` load nothing else of either package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import repro.sim, repro.experiments, repro.parallel, repro.service, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('repro.analysis', 'repro.exact'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ["repro.analysis", "repro.analysis.graph", "repro.exact", "repro.exact.errors"]
    assert proc.stdout.strip() == str(loaded)


def test_a_route_service_loads_the_scheme_catalogue_before_its_workers_fork():
    """Importing the service loads no exact solver, but starting one
    loads the scheme catalogue first: the workers fork with it, so no
    request pays for those imports, at admission or in a worker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from repro.service import RouteService, ServiceConfig\n"
        "print('repro.exact.omp' in sys.modules)\n"
        "with RouteService(ServiceConfig(workers=1)):\n"
        "    print('repro.exact.omp' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_lazy_packages_keep_every_name():
    import repro.analysis
    import repro.exact
    from repro.analysis import certify, graph, invariants, lint, model

    for package in (repro.analysis, repro.exact):
        for name in package.__all__:
            assert getattr(package, name) is not None
        with pytest.raises(AttributeError):
            package.no_such_name  # noqa: B018
    assert repro.analysis.certify_all is certify.certify_all
    assert repro.analysis.find_cycle is graph.find_cycle
    assert repro.analysis.check_spec_invariants is invariants.check_spec_invariants
    assert repro.analysis.lint_paths is lint.lint_paths
    assert repro.analysis.modelcheck_all is model.modelcheck_all
    assert repro.exact.reference.__name__ == "repro.exact.reference"


@pytest.mark.parametrize("snippet", [
    pytest.param("""
        from repro.models.request import MulticastRequest
        from repro.registry import get
        from repro.topology import Mesh2D

        request = MulticastRequest(Mesh2D(4, 4), (0, 0), ((3, 3), (1, 2)))
        assert get("omt").fn(request) == 6
    """, id="omt-solve"),
    pytest.param("""
        from repro.topology import Mesh2D

        assert Mesh2D(4, 4).distance_matrix()[0][15] == 6
    """, id="distance-matrix"),
])
def test_array_work_loads_numpy(snippet):
    assert _numpy_loaded_after(snippet)


def test_the_dense_engine_is_gone():
    import repro.sim

    assert "DenseEngine" not in repro.sim.__all__
    with pytest.raises(AttributeError):
        repro.sim.DenseEngine  # noqa: B018
    with pytest.raises(ImportError):
        import repro.sim.dense  # noqa: F401
