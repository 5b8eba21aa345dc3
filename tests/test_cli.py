"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import runtime as obs_runtime


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_single_sourced(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out == f"scaltool {__version__}\n"

    def test_counts_parsing(self):
        args = build_parser().parse_args(["analyze", "swim", "--counts", "1,2,4"])
        assert args.counts == (1, 2, 4)

    def test_bad_counts_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "swim", "--counts", "a,b"])

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "swim"], ["blame", "swim"], ["profile", "swim"],
         ["sweep", "swim"], ["models", "fit", "swim"], ["topology"]],
    )
    def test_batch_commands_default_to_every_cpu_and_serve_to_one(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).jobs is None
        assert parser.parse_args(argv + ["--jobs", "1"]).jobs == 1
        assert parser.parse_args(["serve"]).jobs == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t3dheat" in out and "swim" in out

    def test_plan(self, capsys):
        assert main(["plan", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "Scal-Tool" in out and "68" in out

    def test_run_prints_perfex(self, capsys):
        assert main(["run", "synthetic", "--size", "8192", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "perfex report" in out
        assert "Graduated instructions" in out

    def test_unknown_workload_is_error(self, capsys):
        assert main(["run", "doom"]) == 1
        assert "error" in capsys.readouterr().err

    def test_campaign_writes_files(self, tmp_path, capsys):
        rc = main(
            [
                "campaign",
                "synthetic",
                "--s0",
                "163840",
                "--counts",
                "1,2",
                "--out",
                str(tmp_path / "camp"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "camp" / "campaign.jsonl").exists()
        assert list((tmp_path / "camp").glob("*.perfex"))

    def test_analyze_from_dir(self, tmp_path, capsys):
        main(
            [
                "campaign", "synthetic", "--s0", "163840", "--counts", "1,2",
                "--out", str(tmp_path / "camp"),
            ]
        )
        capsys.readouterr()
        assert main(["analyze", "synthetic", "--from-dir", str(tmp_path / "camp")]) == 0
        out = capsys.readouterr().out
        assert "Scal-Tool analysis" in out

    def test_analyze_inline_with_cache(self, tmp_path, capsys):
        args = [
            "analyze", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        # second invocation reuses the cache (fast path, same output)
        assert main(args) == 0
        assert "Scal-Tool analysis" in capsys.readouterr().out

    def test_analyze_with_jobs(self, tmp_path, capsys):
        args = [
            "analyze", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--jobs", "2",
        ]
        assert main(args) == 0
        assert "Scal-Tool analysis" in capsys.readouterr().out

    def test_jobs_produces_same_cache_as_serial(self, tmp_path, capsys):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        base = ["analyze", "synthetic", "--s0", "163840", "--counts", "1,2"]
        assert main(base + ["--cache-dir", str(serial_dir), "--jobs", "1"]) == 0
        assert main(base + ["--cache-dir", str(parallel_dir), "--jobs", "2"]) == 0
        capsys.readouterr()
        serial_runs = {p.name: p.read_text() for p in (serial_dir / "runs").glob("*.json")}
        parallel_runs = {p.name: p.read_text() for p in (parallel_dir / "runs").glob("*.json")}
        assert serial_runs == parallel_runs

    def test_sweep_prints_metric_table(self, tmp_path, capsys):
        args = [
            "sweep", "synthetic", "--size", "16384", "-n", "2",
            "--workload-axis", "sharing_frac=0.0,0.1",
            "--metric", "cycles", "--metric", "cpi",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sharing_frac" in out
        assert "cycles" in out and "cpi" in out
        # warm re-run serves from the per-run cache and prints the same table
        assert main(args) == 0
        assert "sharing_frac" in capsys.readouterr().out
        assert list((tmp_path / "runs").glob("*.json"))

    def test_sweep_default_metric_is_cpi(self, tmp_path, capsys):
        args = [
            "sweep", "synthetic", "--size", "16384", "-n", "2",
            "--workload-axis", "sharing_frac=0.0,0.1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert "cpi" in capsys.readouterr().out

    def test_sweep_rejects_unknown_metric(self, tmp_path, capsys):
        args = [
            "sweep", "synthetic", "--size", "16384",
            "--metric", "flops", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_sweep_rejects_bad_axis(self, tmp_path, capsys):
        args = [
            "sweep", "synthetic", "--size", "16384",
            "--workload-axis", "nonsense", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 1
        assert "NAME=V1,V2" in capsys.readouterr().err

    def test_validate(self, tmp_path, capsys):
        args = [
            "validate", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert "MP validation" in capsys.readouterr().out

    def test_whatif_parameters(self, tmp_path, capsys):
        args = [
            "whatif", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--tm", "0.5",
        ]
        assert main(args) == 0
        assert "tm x0.5" in capsys.readouterr().out

    def test_whatif_l2(self, tmp_path, capsys):
        args = [
            "whatif", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--l2", "4",
        ]
        assert main(args) == 0
        assert "L2 x4" in capsys.readouterr().out


class TestNewCommands:
    def test_analyze_markdown(self, tmp_path, capsys):
        args = [
            "analyze", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--markdown",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "# Scal-Tool analysis" in out
        assert "| n |" in out or "| parameter |" in out

    def test_segments_default_groups(self, tmp_path, capsys):
        args = [
            "segments", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "segment-level breakdown" in out

    def test_segments_explicit_group(self, tmp_path, capsys):
        args = [
            "segments", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--group", "work=work_*",
        ]
        assert main(args) == 0
        assert "work" in capsys.readouterr().out

    def test_segments_bad_group(self, tmp_path, capsys):
        args = [
            "segments", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--group", "nonsense",
        ]
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    def test_sharing(self, tmp_path, capsys):
        args = [
            "sharing", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "event-31 decomposition" in out
        assert "sharing-corrected" in out

    def test_topology(self, capsys):
        assert main(["topology", "--counts", "2,4", "--topologies", "ring,crossbar"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "crossbar" in out

    def test_predict(self, tmp_path, capsys):
        args = [
            "predict", "synthetic", "--s0", "163840", "--counts", "1,2,4",
            "--cache-dir", str(tmp_path), "--to", "8,16",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "predicted scaling" in out
        assert "saturation" in out

    def test_balance(self, tmp_path, capsys):
        args = [
            "balance", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "load balance" in out and "verdict" in out


class TestModels:
    def test_campaign_export_speedup(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        args = [
            "campaign", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--out", str(tmp_path / "camp"), "--export-speedup", str(csv_path),
        ]
        assert main(args) == 0
        assert "wrote speedup curve" in capsys.readouterr().out
        text = csv_path.read_text()
        assert text.startswith("n,time,speedup,ci_lo,ci_hi")
        assert len(text.strip().splitlines()) == 3  # header + the two counts

    def test_models_fit_external_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        csv_path.write_text(
            "n,time,speedup,ci_lo,ci_hi\n"
            "1,,1.0,,\n2,,1.9,,\n4,,3.4,,\n8,,5.5,,\n16,,7.1,,\n"
        )
        assert main(["models", "fit", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "sigma" in out and "serial_frac" in out

    def test_models_compare_campaign(self, tmp_path, capsys):
        args = [
            "models", "compare", "synthetic", "--s0", "163840",
            "--counts", "1,2,4,8", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "penalty shares" in out and "agreement:" in out

    def test_models_predict_json(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        csv_path.write_text(
            "n,time,speedup,ci_lo,ci_hi\n"
            "1,,1.0,,\n2,,1.9,,\n4,,3.4,,\n8,,5.5,,\n"
        )
        assert main(["models", "predict", str(csv_path), "--to", "16,32", "--json"]) == 0
        import json as _json

        report = _json.loads(capsys.readouterr().out)
        assert [r["n"] for r in report["rows"]] == [1, 2, 4, 8, 16, 32]

    def test_models_too_few_points_is_typed_error(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("n,time,speedup,ci_lo,ci_hi\n1,,1.0,,\n2,,1.9,,\n")
        assert main(["models", "fit", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and ">= 4" in err

    def test_models_unknown_target_is_error(self, capsys):
        assert main(["models", "fit", "no-such-thing.quux"]) == 1
        assert "error" in capsys.readouterr().err


class TestObservability:
    def test_profile_prints_report(self, capsys):
        args = ["profile", "synthetic", "--s0", "163840", "--counts", "1,2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "# scaltool profile report" in out
        assert "campaign.run" in out
        assert "machine.component.cache" in out
        assert "machine.component.coherence" in out
        assert "machine.component.interconnect" in out
        assert "estimators.fit_t2_tm" in out
        assert "campaign.run_seconds" in out
        # The CLI session is torn down afterwards.
        assert obs_runtime.active() is None

    def test_profile_metrics_out_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "m.jsonl"
        args = [
            "profile", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--metrics-out", str(out_path),
        ]
        assert main(args) == 0
        assert str(out_path) in capsys.readouterr().err
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert {"meta", "span", "counter", "histogram"} <= kinds
        names = {l.get("name") for l in lines}
        # per-component simulator spans + campaign + estimator timings
        assert "machine.component.cache" in names
        assert "machine.component.coherence" in names
        assert "machine.component.interconnect" in names
        assert "campaign.experiment" in names
        assert "analysis.estimate_parameters" in names
        assert "campaign.run_seconds" in names
        for line in lines:
            assert list(line) == sorted(line)

    def test_profile_no_analysis(self, capsys):
        args = ["profile", "synthetic", "--s0", "163840", "--counts", "1,2", "--no-analysis"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out
        assert "analysis.analyze" not in out

    def test_verbose_campaign_progress(self, tmp_path, capsys):
        args = [
            "analyze", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--verbose",
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "run 1/" in err
        assert "synthetic" in err
        # Cache hits still report progress: a warm re-run prints the same
        # run 1/N .. N/N sequence instead of looking hung.
        assert main(args) == 0
        warm = capsys.readouterr().err
        assert "run 1/" in warm
        count = err.count("run ")
        assert warm.count("run ") == count

    def test_metrics_out_on_analyze(self, tmp_path, capsys):
        out_path = tmp_path / "analyze.jsonl"
        args = [
            "analyze", "synthetic", "--s0", "163840", "--counts", "1,2",
            "--cache-dir", str(tmp_path), "--metrics-out", str(out_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        names = {
            json.loads(l).get("name") for l in out_path.read_text().splitlines()
        }
        assert "analysis.estimate_parameters" in names
        assert "cache.miss" in names

    def test_analyze_help_documents_cache_env_var(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--help"])
        assert "SCALTOOL_CACHE_DIR" in capsys.readouterr().out


class TestObsTopAndHot:
    @pytest.fixture
    def manifest(self, tmp_path):
        """Hand-built --metrics-out manifest with known span timings.

        engine.run totals 3.0s but 2.5s of it is its child machine.run,
        so the three sort orders disagree on purpose: total puts
        engine.run first, self puts machine.run first, and count puts
        the twice-recorded analysis.fit first.
        """
        records = [
            {"kind": "span", "path": "engine.run", "duration_s": 3.0},
            {"kind": "span", "path": "engine.run/machine.run", "duration_s": 2.5},
            {"kind": "span", "path": "analysis.fit", "duration_s": 0.1},
            {"kind": "span", "path": "analysis.fit", "duration_s": 0.1},
        ]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_obs_top_default_sorts_by_total(self, manifest, capsys):
        assert main(["obs", "top", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "Slowest span paths (top 3 by total):" in out
        order = [l for l in out.splitlines() if l.startswith("  ")]
        assert order[0].startswith("  engine.run.")
        assert " self=" not in out

    def test_obs_top_sort_self_promotes_leaf_work(self, manifest, capsys):
        assert main(["obs", "top", str(manifest), "--sort", "self"]) == 0
        out = capsys.readouterr().out
        assert "by self" in out
        rows = [l for l in out.splitlines() if l.startswith("  ")]
        # machine.run keeps all 2.5s to itself; engine.run keeps only 0.5s.
        assert rows[0].startswith("  engine.run/machine.run")
        assert all(" self=" in row for row in rows)
        assert "self=0.5s" in rows[1] or "self=0.5" in rows[1]

    def test_obs_top_sort_count_and_deterministic_ties(self, manifest, capsys):
        assert main(["obs", "top", str(manifest), "--sort", "count"]) == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("  ")
        ]
        assert rows[0].startswith("  analysis.fit")
        # engine.run and machine.run tie at count=1: name-then-path order
        # ("engine.run" < "machine.run" on the last path segment).
        assert rows[1].startswith("  engine.run.")
        assert rows[2].startswith("  engine.run/machine.run")

    def test_obs_top_rejects_unknown_sort(self, manifest):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "top", str(manifest), "--sort", "wall"])

    @pytest.fixture
    def hotpath_artifact(self, tmp_path):
        from repro.obs.sampler import SampleProfile

        profile = SampleProfile(interval_s=0.005)
        profile.note(
            "profile/engine.run",
            ("repro/runner/engine.py:run:10", "repro/machine/cache.py:insert:120"),
            7,
        )
        profile.duration_s = 0.035
        path = tmp_path / "hotpath.json"
        path.write_text(json.dumps({"kind": "hotpath", "profile": profile.to_dict()}))
        return path

    def test_obs_hot_renders_saved_artifact(self, hotpath_artifact, capsys):
        assert main(["obs", "hot", str(hotpath_artifact)]) == 0
        out = capsys.readouterr().out
        assert "# scaltool hot-path report" in out
        assert "samples=7" in out
        assert "repro/machine/cache.py:120 insert" in out
        assert "profile/engine.run" in out

    def test_obs_hot_accepts_bare_profile_and_reemits_flame(
        self, hotpath_artifact, tmp_path, capsys
    ):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(hotpath_artifact.read_text())["profile"]))
        flame = tmp_path / "stacks.folded"
        assert main(["obs", "hot", str(bare), "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "# scaltool hot-path report" in out
        assert str(flame) in out
        assert flame.read_text() == (
            "profile/engine.run;repro/runner/engine.py:run:10;"
            "repro/machine/cache.py:insert:120 7\n"
        )
