"""The benchmark check script stays wired to the modules CI smoke-runs.

Mirrors the CI benchmark-smoke steps (``scripts/check_benchmarks.py``) at
test scale: every benchmark module must import, the ``--router-trajectory``
flag must run the router scaling benchmark, write ``BENCH_router.json``,
and hard-gate on routed bit-identity, and the ``--fleet-trajectory`` flag
must run the fleet-churn benchmark, write ``BENCH_fleet.json``, and
hard-gate on every resize invariant.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_benchmarks():
    """The check script imported as a module (it lives outside ``src``)."""
    spec = importlib.util.spec_from_file_location(
        "check_benchmarks", REPO_ROOT / "scripts" / "check_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_required_benchmarks_exist(check_benchmarks):
    benchmarks_dir = REPO_ROOT / "benchmarks"
    for name in check_benchmarks.REQUIRED_BENCHMARKS:
        assert (benchmarks_dir / f"{name}.py").is_file(), f"{name}.py is missing"
    assert "bench_router_scaling" in check_benchmarks.REQUIRED_BENCHMARKS
    assert "bench_fleet_churn" in check_benchmarks.REQUIRED_BENCHMARKS


def test_router_trajectory_flag_writes_record(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """``--router-trajectory`` runs the routed fleet and writes the record.

    The workload overrides shrink it to test scale (real forked workers,
    real IPC); the record shape is the one CI uploads as
    ``BENCH_router.json``.  Bit-identity must hold at any scale — the
    speedup is recorded, not gated (the pytest-benchmark test owns the
    >= 2x acceptance bound at acceptance scale).
    """
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_router.json"
    exit_code = check_benchmarks.main(
        [
            "--router-trajectory", str(path),
            "--router-galleries", "4",
            "--router-subjects", "8",
            "--router-requests", "2",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "router trajectory:" in output
    record = json.loads(path.read_text())
    assert record["benchmark"] == "router_scaling"
    assert record["workload"]["n_galleries"] == 4
    assert record["fleet_workers"] == 4
    assert record["bitwise_equal"] is True
    assert record["http_codecs"] == {"json": True, "binary": True}
    assert record["speedup"] > 0
    fleets = record["fleets"]
    assert set(fleets) == {"1", "4"}
    for entry in fleets.values():
        assert entry["throughput_rps"] > 0
        assert entry["respawns"] == 0


def test_router_trajectory_gates_on_bit_identity(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """A routed response diverging from single-process serving must fail
    the check even with a stellar speedup."""
    def broken(path, galleries=None, subjects=None, requests=None):
        record = {
            "benchmark": "router_scaling",
            "fleets": {},
            "fleet_workers": 4,
            "speedup": 100.0,
            "bitwise_equal": False,
            "http_codecs": {"json": True, "binary": False},
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_router_trajectory", broken)
    exit_code = check_benchmarks.main(["--router-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL router trajectory" in capsys.readouterr().out


def test_fleet_trajectory_flag_writes_record(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """``--fleet-trajectory`` runs the live 2→3→4→3 membership schedule and
    writes the record CI uploads as ``BENCH_fleet.json``.

    The workload overrides shrink it to test scale (real forked workers,
    real warm/drain IPC); every gate is hard — a resize that loses a
    request, leaks a process, or over-remaps fails at any scale.
    """
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_fleet.json"
    exit_code = check_benchmarks.main(
        [
            "--fleet-trajectory", str(path),
            "--fleet-galleries", "3",
            "--fleet-subjects", "6",
            "--fleet-hold", "0.3",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "fleet trajectory:" in output
    record = json.loads(path.read_text())
    assert record["benchmark"] == "fleet_churn"
    assert record["workload"]["n_galleries"] == 3
    assert record["schedule"] == ["add", "add", "remove"]
    assert record["gate_failures"] == []
    assert record["bitwise_equal"] is True
    assert record["totals"]["errors"] == 0
    assert record["resizes_completed"] == 3
    assert len(record["final_members"]) == 3
    assert len(record["steps"]) == 3
    for step in record["steps"]:
        assert 0.0 < step["remap_fraction"] <= step["remap_bound"]
    assert record["steps"][-1]["action"] == "remove"
    assert record["steps"][-1]["drained"] is True


def test_fleet_trajectory_gates_on_resize_invariants(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """A churn run with any gate failure must fail the check, not just be
    recorded."""
    def broken(path, galleries=None, subjects=None, hold=None):
        record = {
            "benchmark": "fleet_churn",
            "steps": [],
            "totals": {
                "ok": 10, "requests": 10, "errors": 0,
                "churn_ok": 5, "churn_resends": 0, "churn_failed": 0,
            },
            "final_members": ["worker-0", "worker-1", "worker-2"],
            "gate_failures": ["step remove 4→3: leaving worker did not drain"],
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_fleet_trajectory", broken)
    exit_code = check_benchmarks.main(["--fleet-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL fleet trajectory" in capsys.readouterr().out
