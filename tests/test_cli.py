"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main


def _shm_segments():
    """Live repro shared-memory segments (the leak check)."""
    from repro.runtime.shm import SEGMENT_PREFIX

    shm_root = Path("/dev/shm")
    if not shm_root.exists():  # pragma: no cover - non-Linux
        return []
    return sorted(path.name for path in shm_root.glob(f"{SEGMENT_PREFIX}-*"))


class TestListCommand:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_experiment_registry_covers_all_paper_results(self):
        assert set(EXPERIMENTS) == {
            "figure1",
            "figure2",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "table1",
            "table2",
            "defense",
        }


class TestDemoCommand:
    def test_demo_prints_attack_report(self, capsys):
        exit_code = main(
            [
                "demo",
                "--subjects", "8",
                "--regions", "40",
                "--timepoints", "100",
                "--features", "60",
                "--seed", "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "identification accuracy" in output


class TestRunCommand:
    def test_run_single_experiment_and_save(self, capsys, tmp_path, monkeypatch):
        # Patch in a tiny configuration so the CLI test stays fast.
        from repro.experiments import ADHDExperimentConfig, HCPExperimentConfig
        import repro.cli as cli

        monkeypatch.setattr(
            cli,
            "_configs",
            lambda paper_scale: (
                HCPExperimentConfig(
                    n_subjects=8, n_regions=30, n_timepoints=80,
                    n_features=40, n_labelled_subjects=4,
                    tsne_iterations=80, performance_repetitions=2,
                    multisite_repetitions=1, multisite_n_timepoints=80, seed=1,
                ),
                ADHDExperimentConfig(
                    n_cases=4, n_controls=4, n_regions=24, n_timepoints=80,
                    n_features=40, identification_repetitions=2, seed=1,
                ),
            ),
        )
        exit_code = main(["run", "figure1", "--save", str(tmp_path / "fig1")])
        output = capsys.readouterr().out
        assert "figure1" in output
        assert (tmp_path / "fig1.json").exists()
        assert exit_code in (0, 1)  # shape may not hold at this tiny scale

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])


class TestGalleryCommand:
    def _build(self, tmp_path, capsys, **overrides):
        args = {
            "--subjects": "8", "--regions": "28", "--timepoints": "70",
            "--features": "50", "--seed": "2",
        }
        args.update(overrides)
        argv = ["gallery", "build", "--dir", str(tmp_path / "gal")]
        for key, value in args.items():
            argv.extend([key, value])
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_build_saves_a_gallery(self, tmp_path, capsys):
        output = self._build(tmp_path, capsys)
        assert "built gallery: 8 subjects" in output
        assert (tmp_path / "gal" / "gallery.npz").exists()
        assert (tmp_path / "gal" / "gallery.json").exists()

    def test_identify_reports_accuracy_and_cache(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        assert main(
            ["gallery", "identify", "--dir", str(tmp_path / "gal"), "--repeat", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "identification accuracy" in output
        assert "hits" in output

    def test_enroll_grows_the_gallery(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        assert main(
            ["gallery", "enroll", "--dir", str(tmp_path / "gal"), "--extra-subjects", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "enrolled 3 new subject(s)" in output
        assert "11 subjects" in output
        assert main(["gallery", "info", "--dir", str(tmp_path / "gal")]) == 0
        assert "subjects enrolled   : 11" in capsys.readouterr().out

    def test_info_prints_fingerprint_and_cache_kinds(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        assert main(["gallery", "info", "--dir", str(tmp_path / "gal")]) == 0
        output = capsys.readouterr().out
        assert "fingerprint" in output
        for kind in ("gallery", "leverage", "svd", "group_matrix"):
            assert kind in output

    def test_randomized_build(self, tmp_path, capsys):
        output = self._build(
            tmp_path, capsys, **{"--method": "randomized", "--rank": "4"}
        )
        assert "randomized SVD" in output

    def test_missing_gallery_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["gallery"])

    def test_missing_gallery_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["gallery", "info", "--dir", str(tmp_path / "nope")]) == 1
        assert "no saved gallery" in capsys.readouterr().err


class TestServeCommand:
    def _build(self, tmp_path, capsys, **overrides):
        args = {
            "--subjects": "8", "--regions": "28", "--timepoints": "70",
            "--features": "50", "--seed": "2",
        }
        args.update(overrides)
        argv = ["gallery", "build", "--dir", str(tmp_path / "gal")]
        for key, value in args.items():
            argv.extend([key, value])
        assert main(argv) == 0
        capsys.readouterr()
        return tmp_path / "gal"

    def _drop_recipe(self, gallery_dir):
        """Strip the dataset recipe from a saved gallery's metadata."""
        meta_path = gallery_dir / "gallery.json"
        meta = json.loads(meta_path.read_text())
        meta["metadata"].pop("dataset", None)
        meta_path.write_text(json.dumps(meta, indent=2))

    def test_serve_rounds_reuse_one_event_loop_and_coalesce(self, tmp_path, capsys):
        gallery_dir = self._build(tmp_path, capsys)
        assert main(
            ["serve", "--dir", str(gallery_dir), "--requests", "4", "--rounds", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "round 1 (cold)" in output
        assert "round 2 (warm)" in output
        assert "max coalesced batch: 4" in output
        # All rounds ran inside ONE asyncio.run: a single live micro-batcher.
        assert "micro-batchers      : 1 event loop(s)" in output

    def test_serve_missing_recipe_exits_1_and_releases_resources(
        self, tmp_path, capsys
    ):
        gallery_dir = self._build(tmp_path, capsys)
        self._drop_recipe(gallery_dir)
        assert main(["serve", "--dir", str(gallery_dir)]) == 1
        assert "no dataset recipe" in capsys.readouterr().err
        assert _shm_segments() == []

    def test_serve_missing_gallery_exits_1_and_releases_resources(
        self, tmp_path, capsys
    ):
        assert main(["serve", "--dir", str(tmp_path / "nope")]) == 1
        assert "no saved gallery" in capsys.readouterr().err
        assert _shm_segments() == []

    def test_serve_with_process_pool_leaves_no_shm_segments(self, tmp_path, capsys):
        """Sharded process-pool serving publishes /dev/shm segments; every
        exit path of ``serve`` must release them."""
        gallery_dir = self._build(tmp_path, capsys, **{"--shard-size": "4"})
        assert main(
            [
                "serve", "--dir", str(gallery_dir),
                "--requests", "2", "--rounds", "1",
                "--workers", "2", "--executor", "process",
            ]
        ) == 0
        assert "served 2 concurrent requests" in capsys.readouterr().out
        assert _shm_segments() == []

    def test_gallery_identify_missing_recipe_exits_1(self, tmp_path, capsys):
        gallery_dir = self._build(tmp_path, capsys)
        self._drop_recipe(gallery_dir)
        assert main(["gallery", "identify", "--dir", str(gallery_dir)]) == 1
        assert "no dataset recipe" in capsys.readouterr().err
        assert _shm_segments() == []


class TestServeHttpCommand:
    @pytest.mark.integration
    def test_http_mode_serves_and_drains_on_sigint(self, tmp_path):
        """End-to-end: build a gallery, `serve --http 0` in a subprocess,
        identify over HTTP, SIGINT, assert graceful drain and no shm leak."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.datasets.hcp import HCPLikeDataset
        from repro.service import ServiceClient

        gallery_dir = tmp_path / "gal"
        assert main(
            [
                "gallery", "build", "--dir", str(gallery_dir),
                "--subjects", "6", "--regions", "24", "--timepoints", "60",
                "--features", "40", "--seed", "3",
            ]
        ) == 0

        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}".rstrip(":")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dir", str(gallery_dir), "--http", "0", "--window", "0.01",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving gallery"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port is not None, "server never announced its port"

            probes = HCPLikeDataset(
                n_subjects=6, n_regions=24, n_timepoints=60, random_state=3
            ).generate_session("REST", encoding="RL", day=2)
            with ServiceClient(port=port) as client:
                assert client.healthz()["status"] == "ok"
                response = client.identify(gallery="gal", scans=probes[:2])
                assert response.ok and response.n_probes == 2

            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - hung server
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutdown: in-flight batches drained" in output
        assert "requests served over HTTP: 2" in output
        assert _shm_segments() == []


class TestRoutedServeCommand:
    """`serve --router-workers N`: the CLI front end of the gallery router."""

    def _build(self, tmp_path, capsys):
        gallery_dir = tmp_path / "routed-gal"
        assert main(
            [
                "gallery", "build", "--dir", str(gallery_dir),
                "--subjects", "6", "--regions", "24", "--timepoints", "60",
                "--features", "40", "--seed", "4",
            ]
        ) == 0
        capsys.readouterr()
        return gallery_dir

    def test_serve_rounds_routed_reports_fleet_and_accuracy(self, tmp_path, capsys):
        gallery_dir = self._build(tmp_path, capsys)
        assert main(
            [
                "serve", "--dir", str(gallery_dir),
                "--requests", "2", "--rounds", "2", "--router-workers", "2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "round 2 (warm)" in output
        assert "identification accuracy" in output
        # Aggregated stats carry the fleet line: all workers alive, no respawns.
        assert "router              : 2/2 workers alive" in output
        assert "0 respawn(s)" in output
        assert _shm_segments() == []

    def test_serve_routed_missing_gallery_exits_1(self, tmp_path, capsys):
        assert main(
            ["serve", "--dir", str(tmp_path / "absent"), "--router-workers", "2"]
        ) == 1
        assert "no saved gallery" in capsys.readouterr().err
        assert _shm_segments() == []

    @pytest.mark.integration
    def test_routed_http_serves_heals_and_drains_on_sigint(self, tmp_path):
        """End-to-end routed mode: banner shows the fleet, `gallery info`
        still works against the same directory while the server is live,
        /stats aggregates the router block, SIGINT drains every worker."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.datasets.hcp import HCPLikeDataset
        from repro.service import ServiceClient

        gallery_dir = tmp_path / "gal"
        assert main(
            [
                "gallery", "build", "--dir", str(gallery_dir),
                "--subjects", "6", "--regions", "24", "--timepoints", "60",
                "--features", "40", "--seed", "3",
            ]
        ) == 0

        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}".rstrip(":")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dir", str(gallery_dir), "--http", "0", "--window", "0.01",
                "--router-workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            # Own session: forked workers share the server's process group,
            # so the failure path below can reap the whole fleet at once
            # (the workers also hold the stdout pipe open — a plain
            # ``process.kill()`` would leave ``communicate()`` hanging).
            start_new_session=True,
        )
        try:
            port = None
            banner = []
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                banner.append(line)
                if line.startswith("serving gallery"):
                    port = int(line.rsplit(":", 1)[1])
                if line.startswith("  - worker-1"):
                    break
            assert port is not None, "server never announced its port"
            banner_text = "".join(banner)
            assert "router: 2 worker process(es)" in banner_text
            assert "worker-0 (pid " in banner_text

            probes = HCPLikeDataset(
                n_subjects=6, n_regions=24, n_timepoints=60, random_state=3
            ).generate_session("REST", encoding="RL", day=2)
            with ServiceClient(port=port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert set(health["workers"]) == {"worker-0", "worker-1"}
                response = client.identify(gallery="gal", scans=probes[:2])
                assert response.ok and response.n_probes == 2
                stats = client.stats()
                assert stats.requests == 1
                assert stats.router["workers"] == 2
                assert stats.router["respawns"] == 0
            # The gallery directory stays a plain saved gallery: `gallery
            # info` reads it directly, routed server or not.
            assert main(["gallery", "info", "--dir", str(gallery_dir)]) == 0

            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - hung server
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        assert process.returncode == 0, output
        assert "shutdown: in-flight batches drained" in output
        assert "requests served over HTTP: 3" in output  # healthz + identify + stats
        assert "router              : " in output
        assert _shm_segments() == []

    @pytest.mark.integration
    def test_routed_http_drains_on_sigterm_without_zombies_or_segments(
        self, tmp_path
    ):
        """Satellite: SIGTERM (the supervisor's signal, not a terminal's
        SIGINT) must drain the routed fleet the same way — exit 0, drained
        banner, no surviving processes in the group, no shm segments."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.datasets.hcp import HCPLikeDataset
        from repro.service import ServiceClient

        gallery_dir = tmp_path / "gal"
        assert main(
            [
                "gallery", "build", "--dir", str(gallery_dir),
                "--subjects", "6", "--regions", "24", "--timepoints", "60",
                "--features", "40", "--seed", "3",
            ]
        ) == 0

        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}".rstrip(":")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dir", str(gallery_dir), "--http", "0", "--window", "0.01",
                "--router-workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,  # own group: killable as one fleet
        )
        try:
            port = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving gallery"):
                    port = int(line.rsplit(":", 1)[1])
                if line.startswith("  - worker-1"):
                    break
            assert port is not None, "server never announced its port"
            # Make a gallery resident first, so the drain has real shm
            # segments and loaded workers to release — not an idle fleet.
            probes = HCPLikeDataset(
                n_subjects=6, n_regions=24, n_timepoints=60, random_state=3
            ).generate_session("REST", encoding="RL", day=2)
            with ServiceClient(port=port) as client:
                response = client.identify(gallery="gal", scans=probes[:2])
                assert response.ok
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - hung server
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        assert process.returncode == 0, output
        assert "shutdown: in-flight batches drained" in output
        # No zombies: the whole session (server + forked workers) is gone.
        group_deadline = time.monotonic() + 10.0
        while time.monotonic() < group_deadline:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - leaked fleet
            pytest.fail("worker fleet survived SIGTERM")
        assert _shm_segments() == []


class TestFaultPlanFlag:
    """`serve --fault-plan PATH`: loading, validation, and the banner."""

    def _build(self, tmp_path, capsys):
        gallery_dir = tmp_path / "gal"
        assert main(
            [
                "gallery", "build", "--dir", str(gallery_dir),
                "--subjects", "6", "--regions", "24", "--timepoints", "60",
                "--features", "40", "--seed", "5",
            ]
        ) == 0
        capsys.readouterr()
        return gallery_dir

    def test_missing_plan_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            [
                "serve", "--dir", str(tmp_path / "gal"),
                "--fault-plan", str(tmp_path / "absent.json"),
            ]
        ) == 1
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_invalid_json_is_a_clean_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("not json {{")
        assert main(
            ["serve", "--dir", str(tmp_path / "gal"), "--fault-plan", str(plan_path)]
        ) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    def test_invalid_plan_spec_is_a_configuration_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"rules": [{"site": "worker.teleport"}]}))
        assert main(
            ["serve", "--dir", str(tmp_path / "gal"), "--fault-plan", str(plan_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "serve failed" in err and "unknown fault site" in err

    def test_valid_plan_prints_the_banner_and_serves(self, tmp_path, capsys):
        from repro.runtime.faults import install_plan

        gallery_dir = self._build(tmp_path, capsys)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "rules": [{"site": "worker.slow_reply", "delay_s": 0.0, "limit": 1}],
        }))
        try:
            assert main(
                [
                    "serve", "--dir", str(gallery_dir),
                    "--requests", "1", "--rounds", "1",
                    "--fault-plan", str(plan_path),
                ]
            ) == 0
            output = capsys.readouterr().out
            assert f"fault injection: 1 rule(s) loaded from {plan_path}" in output
        finally:
            # serve installed the plan process-wide; never leak it into
            # other in-process tests.
            install_plan(None)


class TestRuntimeInfoCommand:
    def test_runtime_info_prints_cache_workers_and_blas(self, capsys):
        assert main(["runtime-info"]) == 0
        output = capsys.readouterr().out
        assert "cache stats" in output
        assert "workers" in output
        assert "blas detection" in output

    def test_runtime_info_reflects_worker_flags(self, capsys):
        assert main(["runtime-info", "--workers", "5", "--executor", "process"]) == 0
        output = capsys.readouterr().out
        assert "max_workers=5" in output
        assert "executor=process" in output

    def test_runtime_info_reports_single_process_router_by_default(self, capsys):
        assert main(["runtime-info"]) == 0
        output = capsys.readouterr().out
        assert "gallery router      : (single process" in output

    def test_runtime_info_reflects_router_flags(self, capsys):
        assert main(
            ["runtime-info", "--router-workers", "3", "--ring-replicas", "32"]
        ) == 0
        output = capsys.readouterr().out
        assert "3 worker process(es)" in output
        assert "ring size 96" in output
        assert "32 virtual nodes per worker" in output


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--dir", "gal", "--precision", "indexed"],
            ["gallery", "build", "--dir", "gal", "--index"],
        ],
    )
    def test_removed_index_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
