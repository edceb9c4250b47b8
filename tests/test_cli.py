import csv
import json
import os
import re

import pytest

from spacetime_fvm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEME_ABORT,
    EXIT_VERIFICATION,
    load_run_artifact,
    main,
)

BASE_CONFIG = """
[spacetime]
domain = interval 0 1
t_final = 0.2

[flux]
builtin = burgers

[mesh]
nx = 16
cfl_target = 0.25

[scheme]
kind = {kind}

[boundary]
u_b = {u_b}

[output]
directory = {out}
"""


def write_config(tmp_path, name="run.ini", kind="godunov", u_b="0.7", extra=""):
    out = tmp_path / "out"
    text = BASE_CONFIG.format(kind=kind, u_b=u_b, out=out) + extra
    path = tmp_path / name
    path.write_text(text)
    return str(path), str(out)


class TestRunCommand:
    def test_constant_run_writes_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        rows = list(csv.DictReader(open(os.path.join(out, "slices.csv"))))
        assert {r["slice_index"] for r in rows}  # all slices present
        assert all(float(r["u"]) == pytest.approx(0.7, abs=1e-10) for r in rows)
        meta = json.load(open(os.path.join(out, "run.json")))
        assert meta["config"]["flux"]["builtin"] == "burgers"
        assert max(meta["lambda_max_per_slab"]) <= 0.5

    def test_shock_profile_run(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        rows = [r for r in csv.DictReader(open(os.path.join(out, "slices.csv")))]
        final = max(int(r["slice_index"]) for r in rows)
        profile = [float(r["u"]) for r in rows if int(r["slice_index"]) == final]
        assert max(profile) == pytest.approx(1.0, abs=1e-9)
        assert min(profile) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_cfl_target_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path, extra="")
        text = open(cfg).read().replace("cfl_target = 0.25", "cfl_target = 0.9")
        open(cfg, "w").write(text)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[spacetime]\ndomain = interval 0 1\nt_final = 0.1\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_expression_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path, u_b="__import__('os')")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_explicit_dt_respected(self, tmp_path):
        cfg, out = write_config(
            tmp_path, extra="\n[run]\nu_min = 0\nu_max = 1\n")
        text = open(cfg).read().replace("cfl_target = 0.25",
                                        "cfl_target = 0.25\ndt = 0.01")
        open(cfg, "w").write(text)
        assert main(["run", "--config", cfg]) == EXIT_OK
        meta = json.load(open(os.path.join(out, "run.json")))
        times = meta["mesh"]["times"]
        assert times[1] - times[0] == pytest.approx(0.01)


    def test_nonconverged_inversion_is_a_scheme_abort(self, tmp_path, capsys):
        # q jumps at u = 0.45, between the states where the derivative
        # check samples it: targets inside the jump cannot be met, so the
        # inversion reaches its cap above tolerance
        cfg, _ = write_config(tmp_path, u_b="sign(x - 0.5) * (-0.45) + 0.45",
                              extra="\n[run]\nu_min = 0\nu_max = 1\n")
        text = open(cfg).read().replace(
            "builtin = burgers",
            "builtin = custom\nwx = u + 0.1 * sign(u - 0.45)\nwt = -0.5 * u * u\n"
            "dwx_du = 1\ndwt_du = -u")
        open(cfg, "w").write(text)
        assert main(["run", "--config", cfg]) == EXIT_SCHEME_ABORT
        err = capsys.readouterr().err
        assert re.match(r"scheme abort: face \('S', \d+, \d+\): total-flux inversion of "
                        r"target \S+ stopped after 100 iterations with residual \S+", err)

    def test_retired_threads_setting_still_loads(self, tmp_path):
        # configs written before the thread pool was removed keep working
        cfg, _ = write_config(tmp_path, extra="\n[run]\nthreads = 4\n")
        assert main(["run", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("u_b, value", [("0/0*x", "nan"), ("1/x", "inf")])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_non_finite_boundary_data_is_a_config_error(self, tmp_path, capsys,
                                                        u_b, value, pinned):
        # both blow up at x = 0 on the initial slice, the first sample point;
        # the check runs whether or not [run] pins the state range
        extra = "\n[run]\nu_min = 0\nu_max = 1\n" if pinned else ""
        cfg, out = write_config(tmp_path, u_b=u_b, extra=extra)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.strip() == (f"config error: [boundary] u_b: boundary data u_B is not "
                               f"finite at (t, x) = (0.0, 0.0): {value}")
        assert not os.path.exists(out)

    def test_formats_without_csv_rejected(self, tmp_path, capsys):
        # run.json always points at slices.csv, so the table cannot be switched off
        cfg, out = write_config(tmp_path)
        open(cfg, "a").write("formats = json\n")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "[output] formats: must include csv" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_formats_with_csv_writes_a_checkable_artifact(self, tmp_path):
        cfg, out = write_config(tmp_path)
        open(cfg, "a").write("formats = json, csv\n")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK


class TestEntropyCheckCommand:
    def test_godunov_run_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK
        report = json.load(open(os.path.join(out, "entropy_report.json")))
        assert report["passed"] is True

    def test_roundtrip_reproduces_identical_residuals(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        run_path = os.path.join(out, "run.json")
        main(["entropy-check", "--run", run_path])
        first = open(os.path.join(out, "entropy_residuals.csv")).read()
        main(["entropy-check", "--run", run_path])
        second = open(os.path.join(out, "entropy_residuals.csv")).read()
        assert first == second

    def test_artifact_reconstruction_matches_states(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        _, result = load_run_artifact(os.path.join(out, "run.json"))
        assert result.tri.n_columns == 16
        assert len(result.states) == result.tri.n_slices

    def test_broken_flux_flagged(self, tmp_path):
        # the anti-dissipative testing flux must end in a scheme abort or a
        # failed verification, never a silent pass
        cfg, out = write_config(
            tmp_path, kind="antidiffusive", u_b="sign(x - 0.4) * (-0.5) + 0.5")
        text = open(cfg).read().replace(
            "kind = antidiffusive",
            "kind = antidiffusive\nrusanov_speed = 0.002\nenforce_cfl = false")
        open(cfg, "w").write(text)
        code = main(["run", "--config", cfg])
        if code == EXIT_SCHEME_ABORT:
            return
        assert code == EXIT_OK
        code = main(["entropy-check", "--run", os.path.join(out, "run.json")])
        assert code in (EXIT_SCHEME_ABORT, EXIT_VERIFICATION)


class TestClassifyCommand:
    def test_appendix_geometries(self, tmp_path):
        cfg, out = write_config(tmp_path, extra="\n[classify]\ngeometry = both\n")
        assert main(["classify", "--config", cfg]) == EXIT_OK
        report = json.load(open(os.path.join(out, "classification.json")))
        assert report["appendix"]["matches_expected"] is True
        hole = report["appendix"]["square_with_hole"]
        assert sorted(hole["inflow"]) == ["hole_top", "outer_bottom"]

    def test_run_geometry_classification(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["classify", "--config", cfg]) == EXIT_OK
        report = json.load(open(os.path.join(out, "classification.json")))
        assert report["hyperbolicity"]["passed"] is True
        assert report["boundary_classes"]["initial_slice"]["kind"] == "spacelike_inflow"
        assert report["boundary_classes"]["final_slice"]["kind"] == "spacelike_outflow"
        assert report["has_spacelike_inflow"] is True


class TestConvergenceCommand:
    def test_small_study_writes_tables(self, tmp_path):
        cfg, out = write_config(
            tmp_path, extra="\n[convergence]\ncase = advection\nmeshes = 8,16\n"
                            "t_final = 0.2\n")
        assert main(["convergence", "--config", cfg]) == EXIT_OK
        study = json.load(open(os.path.join(out, "convergence.json")))
        assert study["errors"][1] < study["errors"][0]
        rows = list(csv.DictReader(open(os.path.join(out, "convergence.csv"))))
        assert len(rows) == 2

    def test_order_band_failure(self, tmp_path):
        cfg, _ = write_config(
            tmp_path, extra="\n[convergence]\ncase = advection\nmeshes = 8,16\n"
                            "t_final = 0.2\norder_band = 5.0,6.0\n")
        assert main(["convergence", "--config", cfg]) == EXIT_VERIFICATION


class TestMeshReportCommand:
    def test_report_written(self, tmp_path):
        cfg, out = write_config(
            tmp_path, extra="\n[mesh_report]\nregion = 0.0 0.1 0.0 0.5\n")
        assert main(["mesh-report", "--config", cfg]) == EXIT_OK
        payload = json.load(open(os.path.join(out, "mesh_report.json")))
        assert payload["regularity"]["max_vertical_faces_per_cell"] == 2
        assert payload["summary"]["admissibility"]["admissible"] is True
        assert payload["regularity"]["cells_per_slab_in_region_max"] is not None


class TestCircleConfig:
    def test_circle_domain_runs(self, tmp_path):
        out = tmp_path / "out"
        text = f"""
[spacetime]
domain = circle 6.283185307179586
t_final = 0.3

[flux]
builtin = traveling_density

[mesh]
nx = 16
cfl_target = 0.25

[boundary]
u_b = 0.5 + 0.25 * sin(x)

[output]
directory = {out}
"""
        path = tmp_path / "circle.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        meta = json.load(open(os.path.join(str(out), "run.json")))
        assert meta["mesh"]["domain"] == "circle"

    def test_custom_flux_expressions(self, tmp_path):
        out = tmp_path / "out"
        text = f"""
[spacetime]
domain = interval 0 1
t_final = 0.1

[flux]
builtin = custom
wx = u
wt = -0.5 * u * u
dwx_du = 1
dwt_du = -u

[mesh]
nx = 8
cfl_target = 0.25

[boundary]
u_b = 0.5

[run]
u_min = 0
u_max = 1

[output]
directory = {out}
"""
        path = tmp_path / "custom.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        rows = list(csv.DictReader(open(os.path.join(str(out), "slices.csv"))))
        assert all(float(r["u"]) == pytest.approx(0.5, abs=1e-10) for r in rows)

    def test_repeat_runs_are_bit_identical(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        first = open(os.path.join(out, "slices.csv"), "rb").read()
        main(["run", "--config", cfg])
        second = open(os.path.join(out, "slices.csv"), "rb").read()
        assert first == second
