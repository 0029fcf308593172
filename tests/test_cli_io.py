"""Config parsing, rate fitting, study drivers, and the command line
entry point."""

import argparse
import sys

import numpy as np
import pytest

import dpgelast.mesh
from dpgelast.cli_io import (
    BENCHMARKS,
    METHODS,
    CONVERGENCE_HEADER,
    INFSUP_HEADER,
    ConfigError,
    RunConfig,
    ConvergenceRecord,
    parse_config,
    load_config,
    estimate_rate,
    run_convergence,
    run_adaptive,
    run_infsup,
    read_convergence_csv,
    main,
    _build_config,
)


def fake_record(dofs, errs):
    rec = ConvergenceRecord(config=RunConfig())
    for i, (d, e) in enumerate(zip(dofs, errs)):
        rec.steps.append({"step": i, "dofs": d, "eta": e, "rel_error": e, "wall_time": 0.0})
    return rec


class TestEstimateRate:
    def test_exact_half_power(self):
        dofs = np.array([100.0, 400.0, 1600.0, 6400.0])
        rec = fake_record(dofs, dofs**-0.5)
        assert abs(estimate_rate(rec, 4) + 0.5) < 1e-12

    def test_two_point_slope(self):
        rec = fake_record([100.0, 400.0], [1e-1, 2.5e-2])
        assert abs(estimate_rate(rec, 2) + 1.0) < 1e-12

    def test_uses_last_k_rows(self):
        # slope -1 on the first rows, -2 on the last two
        rec = fake_record([10.0, 100.0, 1000.0], [1e-1, 1e-2, 1e-4])
        assert abs(estimate_rate(rec, 2) + 2.0) < 1e-12

    def test_k_too_small(self):
        rec = fake_record([10.0, 100.0], [1.0, 0.1])
        with pytest.raises(ValueError):
            estimate_rate(rec, 1)

    def test_not_enough_rows(self):
        rec = fake_record([10.0], [1.0])
        with pytest.raises(ValueError):
            estimate_rate(rec, 2)

    def test_constant_dofs_rejected(self):
        rec = fake_record([10.0, 10.0], [1.0, 0.1])
        with pytest.raises(ValueError):
            estimate_rate(rec, 2)


class TestConfig:
    def test_defaults_valid(self):
        cfg = parse_config("")
        assert cfg.benchmark in BENCHMARKS and cfg.formulation in METHODS

    def test_parse_and_comment(self):
        cfg = parse_config("p = 2  # order\nsteps=3\nbenchmark=lshape_singular\n")
        assert (cfg.p, cfg.steps, cfg.benchmark) == (2, 3, "lshape_singular")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("p=1\nbogus=3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("p=two\n")

    def test_semantic_validation(self):
        with pytest.raises(ConfigError):
            parse_config("benchmark=cube\n")
        with pytest.raises(ConfigError):
            parse_config("p=4\n")  # default p_res=4 violates p_res >= p+1

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv")
    cfg = RunConfig(formulation="primal", p=1, steps=2, output_dir=str(out))
    return run_convergence(cfg), out


class TestConvergenceRun:
    def test_row_count_and_growth(self, record):
        rec, _ = record
        assert len(rec.steps) == 3
        dofs = [r["dofs"] for r in rec.steps]
        assert dofs == sorted(dofs) and dofs[0] < dofs[-1]

    def test_slopes_fitted(self, record):
        rec, _ = record
        assert -1.0 < rec.error_slope < -0.2
        assert -1.0 < rec.eta_slope < -0.2

    def test_csv_round_trip(self, record):
        rec, out = record
        rows = read_convergence_csv(out / "convergence.csv")
        assert len(rows) == len(rec.steps)
        for got, want in zip(rows, rec.steps):
            assert got["dofs"] == want["dofs"]
            assert got["rel_error"] == want["rel_error"]

    def test_manifest_written(self, record):
        _, out = record
        from dpgelast.persistence_formats import StudyManifest

        m = StudyManifest.load(out / "manifest.json", verify=True)
        assert "convergence" in m.artifacts

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = RunConfig(formulation="ultraweak", p=1, steps=1, output_dir=str(out))
            run_convergence(cfg)
            texts.append((out / "convergence.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_galerkin_eta_is_nan(self, tmp_path):
        cfg = RunConfig(formulation="galerkin", steps=2, output_dir=str(tmp_path))
        rec = run_convergence(cfg)
        assert all(np.isnan(r["eta"]) for r in rec.steps)


class TestAdaptiveRun:
    def test_smoke_lshape(self, tmp_path):
        cfg = RunConfig(
            benchmark="lshape_singular",
            formulation="primal",
            steps=3,
            output_dir=str(tmp_path),
        )
        rec = run_adaptive(cfg)
        assert len(rec.steps) == 3
        assert (tmp_path / "adaptive.csv").exists()
        assert rec.error_slope < 0

    def test_galerkin_rejected(self, tmp_path):
        cfg = RunConfig(formulation="galerkin", output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_adaptive(cfg)

    @pytest.mark.parametrize("key,value", [("steps", 1), ("theta", 1.0), ("theta", -0.1)])
    def test_bad_config_rejected_before_any_solve(self, tmp_path, monkeypatch, key, value):
        import dpgelast.cli_io as cli_io

        def no_solve(*args, **kwargs):
            raise AssertionError("the loop ran on a bad config")

        monkeypatch.setattr(cli_io, "adaptive_loop", no_solve)
        cfg = RunConfig(benchmark="lshape_singular", output_dir=str(tmp_path))
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=key):
            run_adaptive(cfg)
        assert not (tmp_path / "adaptive.csv").exists()

    def test_two_steps_valid(self, tmp_path):
        cfg = RunConfig(benchmark="lshape_singular", steps=2, theta=0.0, output_dir=str(tmp_path))
        assert len(run_adaptive(cfg).steps) == 2


class TestInfSupRun:
    def test_table(self, tmp_path):
        path = run_infsup(RunConfig(output_dir=str(tmp_path)))
        lines = path.read_text().splitlines()
        assert lines[0] == INFSUP_HEADER
        assert len(lines) == 1 + 5 * 2 * 3
        rows = [l.split(",") for l in lines[1:]]
        dirichlet = {(r[0], r[1]): float(r[3]) for r in rows if r[2] == "dirichlet"}
        assert all(g > 0 for g in dirichlet.values())
        free_primal = [float(r[3]) for r in rows if r[0] == "primal" and r[2] == "free"]
        assert max(free_primal) < min(dirichlet.values()) / 1e6

    def test_one_skeleton_per_mesh(self, tmp_path, monkeypatch):
        # each of the three meshes builds its skeleton once for the ten
        # problems on it; the spy replaces every module's binding of the builder
        builds, build = [], dpgelast.mesh.skeleton

        def spy(mesh):
            builds.append(mesh)
            return build(mesh)

        for name, mod in list(sys.modules.items()):
            if name.startswith("dpgelast"):
                for key, value in list(vars(mod).items()):
                    if value is build:
                        monkeypatch.setattr(mod, key, spy)
        run_infsup(RunConfig(p=1, output_dir=str(tmp_path)))
        assert len(builds) == 3

    def test_geometry_classes_once_per_mesh(self, tmp_path, monkeypatch):
        # each of the three meshes numbers its geometry classes once for the
        # ten problems on it
        builds, build = [], dpgelast.mesh.geometry_classes
        monkeypatch.setattr(dpgelast.mesh, "geometry_classes", lambda mesh: builds.append(mesh) or build(mesh))
        run_infsup(RunConfig(p=1, output_dir=str(tmp_path)))
        assert len(builds) == 3

    def test_byte_identical_reruns(self, tmp_path):
        texts = [run_infsup(RunConfig(p=1, output_dir=str(tmp_path / sub))).read_bytes() for sub in ("a", "b")]
        assert texts[0] == texts[1]


class TestMain:
    def test_converge_subcommand(self, tmp_path):
        rc = main(
            [
                "converge",
                "--set",
                "steps=1",
                "--set",
                f"output_dir={tmp_path}",
            ]
        )
        assert rc == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_config_file_with_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("formulation=strong\nsteps=1\n")
        rc = main(
            ["converge", "--config", str(cfgfile), "--set", f"output_dir={tmp_path}"]
        )
        assert rc == 0
        header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
        assert header == CONVERGENCE_HEADER

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["converge", "--set", "benchmark=cube", "--set", f"output_dir={tmp_path}"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_override_value_names_key(self, tmp_path, capsys):
        rc = main(["converge", "--set", "p=abc", "--set", f"output_dir={tmp_path}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "override 1" in err and "'p'" in err

    @pytest.mark.parametrize("override", ["lam=nan", "lam=inf", "mu=nan", "mu=inf"])
    def test_non_finite_material_exits_before_any_solve(self, tmp_path, capsys, monkeypatch, override):
        import dpgelast.cli_io as cli_io

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran on a bad config")

        monkeypatch.setattr(cli_io, "solve", no_solve)
        rc = main(["converge", "--set", override, "--set", f"output_dir={tmp_path}"])
        assert rc == 1
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("override", ["steps=1", "theta=1.5"])
    def test_adapt_bad_config_exit_code_names_key(self, tmp_path, capsys, override):
        rc = main(["adapt", "--set", override, "--set", f"output_dir={tmp_path}"])
        assert rc == 1
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "adaptive.csv").exists()

    def test_converge_one_step_valid(self):
        assert parse_config("steps=1\n").steps == 1

    def test_override_comment_stripped(self):
        cfg = _build_config(argparse.Namespace(config=None, set=["steps=1 # c", "p = 2"]))
        assert (cfg.steps, cfg.p) == (1, 2)

    def test_dump_mesh(self, tmp_path):
        out = tmp_path / "mesh.json"
        rc = main(["dump-mesh", "--levels", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_dump_mesh_rejects_negative_levels(self, tmp_path, capsys):
        out = tmp_path / "mesh.vtk"
        rc = main(["dump-mesh", "--levels", "-1", "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
