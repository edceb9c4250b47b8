import csv
import io
import json
import os
import re
from pathlib import Path

import pytest

from spacetime_fvm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEME_ABORT,
    EXIT_VERIFICATION,
    load_run_artifact,
    main,
)
from spacetime_fvm.config import load_config
from spacetime_fvm.scheme import Solver

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


def write_custom_config(tmp_path, wx="u", u_b="0.5", wt="-0.5 * u * u"):
    """A custom flux ``wx dx + wt dt`` with derivatives 1 and -u, states in [0, 1]."""
    cfg, out = write_config(tmp_path, u_b=u_b, extra="\n[run]\nu_min = 0\nu_max = 1\n")
    text = Path(cfg).read_text().replace(
        "builtin = burgers",
        f"builtin = custom\nwx = {wx}\nwt = {wt}\ndwx_du = 1\ndwt_du = -u")
    Path(cfg).write_text(text)
    return cfg, out


class TestRunCommand:
    def test_constant_run_writes_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        rows = list(csv.DictReader(Path(out, "slices.csv").read_text().splitlines()))
        assert {r["slice_index"] for r in rows}  # all slices present
        assert all(float(r["u"]) == pytest.approx(0.7, abs=1e-10) for r in rows)
        meta = json.loads(Path(out, "run.json").read_text())
        assert meta["config"]["flux"]["builtin"] == "burgers"
        assert max(meta["lambda_max_per_slab"]) <= 0.5

    def test_shock_profile_run(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        rows = list(csv.DictReader(Path(out, "slices.csv").read_text().splitlines()))
        final = max(int(r["slice_index"]) for r in rows)
        profile = [float(r["u"]) for r in rows if int(r["slice_index"]) == final]
        assert max(profile) == pytest.approx(1.0, abs=1e-9)
        assert min(profile) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_cfl_target_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path, extra="")
        text = Path(cfg).read_text().replace("cfl_target = 0.25", "cfl_target = 0.9")
        Path(cfg).write_text(text)
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
        text = Path(cfg).read_text().replace("cfl_target = 0.25",
                                             "cfl_target = 0.25\ndt = 0.01")
        Path(cfg).write_text(text)
        assert main(["run", "--config", cfg]) == EXIT_OK
        meta = json.loads(Path(out, "run.json").read_text())
        times = meta["mesh"]["times"]
        assert times[1] - times[0] == pytest.approx(0.01)


    def test_nonconverged_inversion_is_a_scheme_abort(self, tmp_path, capsys):
        # q jumps at u = 0.45, between the states where the derivative
        # check samples it: targets inside the jump cannot be met, so the
        # inversion reaches its cap above tolerance
        cfg, _ = write_custom_config(tmp_path, "u + 0.1 * sign(u - 0.45)",
                                     u_b="sign(x - 0.5) * (-0.45) + 0.45")
        assert main(["run", "--config", cfg]) == EXIT_SCHEME_ABORT
        err = capsys.readouterr().err
        assert re.match(r"scheme abort: face \('S', \d+, \d+\): total-flux inversion of "
                        r"target \S+ stopped after 100 iterations with residual \S+", err)

    def test_non_finite_flux_coefficient_is_a_config_error(self, tmp_path, capsys):
        # NaN for x < 0.5: the first coefficient sample (t, x, u) = (0, 0, 0) catches it
        cfg, out = write_custom_config(tmp_path, "u + 0 * (x - 0.5) ** 0.5")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.strip() == ("config error: [flux] wx: not finite at (t, x) = (0.0, 0.0) "
                               "for u = 0.0: nan")
        assert not os.path.exists(out)

    # NaN only for |x - 0.6| < 0.05, between the coefficient samples (x = 0.5,
    # 0.75): the faces there get NaN total fluxes, so some inversion target
    # is NaN, which lies outside every image
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("flux", [{"wx": "u + 0 * (abs(x - 0.6) - 0.05) ** 0.5"},
                                      {"wt": "-0.5 * u * u + 0 * (abs(x - 0.6) - 0.05) ** 0.5"}],
                             ids=["wx", "wt"])
    def test_nan_inversion_target_is_a_scheme_abort(self, tmp_path, capsys, flux):
        cfg, out = write_custom_config(tmp_path, **flux)
        assert main(["run", "--config", cfg]) == EXIT_SCHEME_ABORT
        err = capsys.readouterr().err
        assert re.match(r"scheme abort: face \('S', 1, \d+\): target nan outside image", err)
        assert not os.path.exists(os.path.join(out, "slices.csv"))

    # the same NaN stretch in dwt_du: the vertical faces there get a NaN G'
    # bound, so the CFL ratio of the cell at x in [0.5, 0.5625] is NaN; the
    # slab-height search and, with an explicit dt, the run's CFL check name it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("dt, where", [
        (None, r"probe slab \(t0, hbar\) = \(0\.0, 0\.2\): CFL ratio of cell 8 is nan: "
               r"G' bound of vertical face x = 0\.5625 is nan"),
        ("0.01", r"slab 0: CFL ratio of cell 8 is nan: "
                 r"G' bound of vertical face \('V', 0, 9\) is nan")], ids=["search", "dt"])
    def test_nan_cfl_ratio_is_a_scheme_abort_naming_its_face(self, tmp_path, capsys, dt, where):
        cfg, out = write_custom_config(tmp_path)
        text = Path(cfg).read_text().replace(
            "dwt_du = -u", "dwt_du = -u + 0 * (abs(x - 0.6) - 0.05) ** 0.5")
        if dt is not None:
            text = text.replace("cfl_target = 0.25", f"cfl_target = 0.25\ndt = {dt}")
        Path(cfg).write_text(text)
        assert main(["run", "--config", cfg]) == EXIT_SCHEME_ABORT
        assert re.fullmatch("scheme abort: " + where, capsys.readouterr().err.strip())
        assert not os.path.exists(os.path.join(out, "slices.csv"))

    def test_retired_threads_setting_still_loads(self, tmp_path):
        # configs written before the thread pool was removed keep working
        cfg, _ = write_config(tmp_path, extra="\n[run]\nthreads = 4\n")
        assert main(["run", "--config", cfg]) == EXIT_OK

    def test_retired_entropy_checks_setting_still_loads(self, tmp_path):
        # [entropy] checks was never read; configs that set it keep working
        cfg, out = write_config(tmp_path, extra="\n[entropy]\nchecks = false\ntol = 1e-6\n")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK
        assert json.loads(Path(out, "entropy_report.json").read_text())["tol"] == 1e-6

    @pytest.mark.parametrize("command", ["run", "classify", "convergence", "mesh-report"])
    def test_tol_is_a_usage_error_outside_entropy_check(self, tmp_path, capsys, command):
        cfg, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

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
        with open(cfg, "a") as handle:
            handle.write("formats = json\n")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "[output] formats: must include csv" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_formats_with_csv_writes_a_checkable_artifact(self, tmp_path):
        cfg, out = write_config(tmp_path)
        with open(cfg, "a") as handle:
            handle.write("formats = json, csv\n")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK


class TestEntropyCheckCommand:
    def test_godunov_run_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK
        report = json.loads(Path(out, "entropy_report.json").read_text())
        assert report["passed"] is True

    def test_roundtrip_reproduces_identical_residuals(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        run_path = os.path.join(out, "run.json")
        main(["entropy-check", "--run", run_path])
        first = Path(out, "entropy_residuals.csv").read_text()
        main(["entropy-check", "--run", run_path])
        second = Path(out, "entropy_residuals.csv").read_text()
        assert first == second

    def test_artifact_reconstruction_matches_states(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        _, result = load_run_artifact(os.path.join(out, "run.json"))
        assert result.tri.n_columns == 16
        assert len(result.states) == result.tri.n_slices

    def test_state_table_format(self, tmp_path):
        # the table written from arrays equals the csv module's rendering of
        # the same rows, and reads back bit for bit
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        setup = load_config(cfg)
        result = Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd,
                        setup.cfg).run()
        main(["run", "--config", cfg])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["slice_index", "t", "x_left", "x_right", "u", "q"])
        xs, times = result.tri.breakpoints, result.tri.times
        for state in result.states:
            for i in range(result.tri.n_columns):
                writer.writerow([state.slice_index] + [f"{float(v):.17g}" for v in (
                    times[state.slice_index], xs[i], xs[i + 1], state.values[i],
                    state.fluxes[i])])
        assert Path(out, "slices.csv").read_bytes() == buf.getvalue().encode()
        _, loaded = load_run_artifact(os.path.join(out, "run.json"))
        for a, b in zip(loaded.states, result.states):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.fluxes.tobytes() == b.fluxes.tobytes()

    @pytest.mark.parametrize("keep", [-1, 1])
    def test_missing_or_short_slice_is_a_config_error(self, tmp_path, capsys, keep):
        # keep = -1 drops the last row (slice N is short); keep = 1 keeps only
        # the header (slice 0 is missing)
        cfg, out = write_config(tmp_path)
        main(["run", "--config", cfg])
        table = Path(out, "slices.csv")
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:keep]))
        n_slices = len(json.loads(Path(out, "run.json").read_text())["mesh"]["times"])
        missing = n_slices - 1 if keep < 0 else 0
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_CONFIG
        assert f"run artifact is missing slice {missing} data" in capsys.readouterr().err

    def test_broken_flux_flagged(self, tmp_path):
        # the anti-dissipative testing flux must end in a scheme abort or a
        # failed verification, never a silent pass
        cfg, out = write_config(
            tmp_path, kind="antidiffusive", u_b="sign(x - 0.4) * (-0.5) + 0.5")
        text = Path(cfg).read_text().replace(
            "kind = antidiffusive",
            "kind = antidiffusive\nrusanov_speed = 0.002\nenforce_cfl = false")
        Path(cfg).write_text(text)
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
        report = json.loads(Path(out, "classification.json").read_text())
        assert report["appendix"]["matches_expected"] is True
        hole = report["appendix"]["square_with_hole"]
        assert sorted(hole["inflow"]) == ["hole_top", "outer_bottom"]

    def test_run_geometry_classification(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["classify", "--config", cfg]) == EXIT_OK
        report = json.loads(Path(out, "classification.json").read_text())
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
        study = json.loads(Path(out, "convergence.json").read_text())
        assert study["errors"][1] < study["errors"][0]
        rows = list(csv.DictReader(Path(out, "convergence.csv").read_text().splitlines()))
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
        payload = json.loads(Path(out, "mesh_report.json").read_text())
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
        meta = json.loads((out / "run.json").read_text())
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
        rows = list(csv.DictReader((out / "slices.csv").read_text().splitlines()))
        assert all(float(r["u"]) == pytest.approx(0.5, abs=1e-10) for r in rows)

    def test_repeat_runs_are_bit_identical(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        first = Path(out, "slices.csv").read_bytes()
        main(["run", "--config", cfg])
        second = Path(out, "slices.csv").read_bytes()
        assert first == second
