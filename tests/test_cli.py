import csv
import io
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spacetime_fvm import cli as cli_module
from spacetime_fvm import config as config_module
from spacetime_fvm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEME_ABORT,
    EXIT_VERIFICATION,
    load_run_artifact,
    main,
    write_run_csv,
)
from spacetime_fvm.config import load_config
from spacetime_fvm.entropy import verify_run
from spacetime_fvm.mesh import Foliation
from spacetime_fvm.scheme import Solver

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

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

    def test_wrong_u_free_declaration_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # Burgers declared with a dt derivative free of u, which -u is not
        burgers = config_module.burgers_flux
        monkeypatch.setattr(config_module, "burgers_flux", lambda *args, **kwargs: replace(
            burgers(*args, **kwargs), u_free_du=frozenset({(0,)})))
        cfg, out = write_config(tmp_path, u_b="0.5 + 0.2 * x")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert re.fullmatch(r"config error: flux 'burgers' is declared not to read u, but "
                            r"dwt_du does: at t = 0\.0, x = 0\.0 it is \S+ at u = 0\.5 and "
                            r"\S+ at u = \S+", capsys.readouterr().err.strip())
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

    def test_nonpositive_alpha_b_mass_names_its_face(self, tmp_path, capsys):
        # alpha_B = 1 - x vanishes on the right boundary line only; the
        # initial slice's Gauss nodes stay inside (0, 1)
        cfg, out = write_config(tmp_path, u_b="0.7\nalpha_b = 1 - x")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert re.fullmatch(r"config error: alpha_B mass must be positive on every boundary "
                            r"face: the right face of slab 0 \(x = 1\.0, t in \[0\.0, \S+\]\) "
                            r"has mass 0\.0", capsys.readouterr().err.strip())
        assert not os.path.exists(os.path.join(out, "slices.csv"))

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


def _per_row_csv(result) -> bytes:
    """``write_run_csv`` formatting every value on its own, row by row."""
    xs = result.tri.breakpoints.tolist()
    columns = [f"{a:.17g},{b:.17g}" for a, b in zip(xs[:-1], xs[1:])]
    times = result.tri.times.tolist()
    text = "slice_index,t,x_left,x_right,u,q\r\n"
    for state in result.states:
        head = f"{state.slice_index},{times[state.slice_index]:.17g},"
        text += "".join(f"{head}{col},{u:.17g},{q:.17g}\r\n" for col, u, q in zip(
            columns, state.values.tolist(), state.fluxes.tolist()))
    return text.encode()


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs_and_verifies(tmp_path, config, monkeypatch):
    # run, then entropy-check, in process; the artifact reads back bit for bit
    written = []

    def keep(result, path):
        written.append(result)
        write_run_csv(result, path)

    monkeypatch.setattr(cli_module, "write_run_csv", keep)
    out = tmp_path / config.stem
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    run_json = str(out / "run.json")
    assert main(["entropy-check", "--run", run_json]) == EXIT_OK
    assert json.loads((out / "entropy_report.json").read_text())["passed"] is True
    _, loaded = load_run_artifact(run_json)
    [result] = written
    assert loaded.tri.times.tobytes() == result.tri.times.tobytes()
    assert loaded.tri.heights.tobytes() == result.tri.heights.tobytes()
    assert loaded.tri.breakpoints.tobytes() == result.tri.breakpoints.tobytes()
    assert len(loaded.states) == len(result.states)
    for a, b in zip(loaded.states, result.states):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.fluxes.tobytes() == b.fluxes.tobytes()


class TestEntropyCheckCommand:
    def test_godunov_run_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK
        report = json.loads(Path(out, "entropy_report.json").read_text())
        assert report["passed"] is True

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_meaningless_tolerance_is_a_config_error(self, tmp_path, capsys, value):
        # a NaN or negative tolerance fails every check and inf passes every
        # one: none of them says anything about the run, so none is accepted
        cfg, out = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        run_path = os.path.join(out, "run.json")
        capsys.readouterr()
        assert main(["entropy-check", "--run", run_path, "--tol", value]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: --tol: must be finite and non-negative, got {float(value)!r}")
        assert not Path(out, "entropy_report.json").exists()
        # the same value as [entropy] tol, in a config and in a run artifact's config
        message = f"config error: [entropy] tol: must be finite and non-negative, got {float(value)!r}"
        bad, _ = write_config(tmp_path, name="bad.ini", extra=f"\n[entropy]\ntol = {value}\n")
        assert main(["run", "--config", bad]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == message
        meta = json.loads(Path(run_path).read_text())
        meta["config"]["entropy"] = {"tol": value}
        Path(run_path).write_text(json.dumps(meta))
        assert main(["entropy-check", "--run", run_path]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == message
        assert not Path(out, "entropy_report.json").exists()

    def test_nan_initial_slice_flux_fails_the_check(self, tmp_path, capsys):
        # slab 0's conservation identity covers slice 0, whose q no other check reads;
        # in an artifact, the loader refuses the NaN first
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        run_path = os.path.join(out, "run.json")
        setup, result = load_run_artifact(run_path)
        result.states[0].fluxes[0] = np.nan
        report = verify_run(result, tol=setup.entropy_tol)
        conservation = next(c for c in report.checks if c.name == "conservation_identity")
        assert np.isnan(conservation.max_residual) and not conservation.passed
        assert np.isnan(report.per_slab["conservation_identity"][0])
        assert np.isfinite(report.tol)
        table = Path(out, "slices.csv")
        lines = table.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        assert fields[0] == "0"
        lines[1] = ",".join(fields[:-1] + ["nan\r\n"])
        table.write_text("".join(lines))
        assert main(["entropy-check", "--run", run_path]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            "config error: run artifact slices.csv line 2: q nan is not finite")
        assert not Path(out, "entropy_report.json").exists()

    def test_roundtrip_reproduces_identical_residuals(self, tmp_path):
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        main(["run", "--config", cfg])
        run_path = os.path.join(out, "run.json")
        main(["entropy-check", "--run", run_path])
        first = Path(out, "entropy_residuals.csv").read_text()
        main(["entropy-check", "--run", run_path])
        second = Path(out, "entropy_residuals.csv").read_text()
        assert first == second

    def test_run_placed_at_exact_heights_still_passes(self, tmp_path, monkeypatch):
        # a run.json from before nominal slab heights placed each slab's nodes
        # by np.diff(times); entropy-check re-reads it with nominal heights
        config = next(p for p in SHIPPED_CONFIGS if p.stem == "custom_capacity")
        slices = {}
        for exact in (True, False):
            out = tmp_path / str(exact)
            with monkeypatch.context() as patch:
                if exact:
                    patch.setattr(Foliation, "heights",
                                  property(lambda self: np.diff(self.times)))
                assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
            slices[exact] = (out / "slices.csv").read_bytes()
        assert slices[True] != slices[False]
        assert main(["entropy-check", "--run", str(tmp_path / "True" / "run.json")]) == EXIT_OK
        assert json.loads((tmp_path / "True" / "entropy_report.json").read_text())["passed"]

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

    def test_state_table_equals_per_row_formatting(self, tmp_path):
        # the writer formats each bit pattern of a slice once: 0.0 and -0.0,
        # and NaNs with other payloads, keep their own text
        cfg, _ = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        setup = load_config(cfg)
        result = Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd,
                        setup.cfg).run()
        nans = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float)
        for state in result.states[::3]:
            state.values[:5] = [0.0, -0.0, 0.0, -0.0, 0.0]
            state.fluxes[-4:] = [-0.0, 0.0, *nans]
        path = tmp_path / "slices.csv"
        write_run_csv(result, str(path))
        table = path.read_bytes()
        assert table == _per_row_csv(result)
        assert all(text in table for text in (b",-0,", b",-0\r\n", b",0\r\n", b",nan\r\n"))

    def test_state_table_in_several_writes_equals_per_row_formatting(self, tmp_path, monkeypatch):
        # four slices per write: the run spans several chunks, a chunk boundary
        # falls between two slices mid-run, and the last chunk is short
        cfg, _ = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        setup = load_config(cfg)
        result = Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd,
                        setup.cfg).run()
        m, n = result.tri.n_columns, len(result.states)
        assert n >= 9 and n % 4 != 0
        result.states[4].values[:3] = [0.0, -0.0, np.nan]
        monkeypatch.setattr(cli_module, "CSV_ROWS_PER_WRITE", 4 * m + m // 2)
        texts = cli_module._texts
        calls = []
        monkeypatch.setattr(cli_module, "_texts",
                            lambda values, fmt: calls.append(values.size) or texts(values, fmt))
        path = tmp_path / "slices.csv"
        write_run_csv(result, str(path))
        assert path.read_bytes() == _per_row_csv(result)
        assert calls == [4 * m, 4 * m] * (n // 4) + [(n % 4) * m] * 2

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

    @pytest.mark.parametrize("index", ["7.5", "99999", "-1", "nan"])
    def test_stray_slice_index_is_a_config_error_naming_its_line(self, tmp_path, capsys,
                                                                  index):
        # a copy of a data row with an index that names no slice, after line 5
        cfg, out = write_config(tmp_path, u_b="sign(x - 0.4) * (-0.5) + 0.5")
        assert main(["run", "--config", cfg]) == EXIT_OK
        table = Path(out, "slices.csv")
        lines = table.read_text().splitlines(keepends=True)
        lines.insert(5, index + "," + lines[3].split(",", 1)[1])
        table.write_text("".join(lines))
        n_slices = len(json.loads(Path(out, "run.json").read_text())["mesh"]["times"])
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: run artifact slices.csv line 6: slice_index {index} is not an "
            f"integer in 0..{n_slices - 1}")

    @pytest.mark.parametrize("column, value, expected", [
        ("t", "0.123", "t 0.123 is not run.json's 0.03125"),
        ("x_left", "0.5", "x_left 0.5 is not run.json's 0.375"),
        ("x_right", "0.7", "x_right 0.7 is not run.json's 0.5"),
        ("u", "nan", "u nan is not finite"),
        ("u", "inf", "u inf is not finite"),
        ("u", "5.0", "u 5.0 is outside run.json's u_range [0.0, 1.0]"),
        ("q", "nan", "q nan is not finite"),
        ("q", "-inf", "q -inf is not finite"),
    ])
    def test_csv_entry_off_the_mesh_or_not_finite_is_a_config_error(self, tmp_path, capsys,
                                                                    column, value, expected):
        # configs/burgers_shock.ini at nx = 8: line 21 is slice 2, column 3
        shock = next(path for path in SHIPPED_CONFIGS if path.name == "burgers_shock.ini")
        text = shock.read_text().replace("nx = 64", "nx = 8")
        out = tmp_path / "out"
        cfg = tmp_path / "shock.ini"
        cfg.write_text(text.replace("out/burgers_shock", str(out)))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        table = out / "slices.csv"
        lines = table.read_text().splitlines(keepends=True)
        header = lines[0].strip().split(",")
        fields = lines[20].rstrip("\r\n").split(",")
        assert fields[:3] == ["2", "0.03125", "0.375"] and fields[3] == "0.5"
        fields[header.index(column)] = value
        lines[20] = ",".join(fields) + "\r\n"
        table.write_text("".join(lines))
        assert main(["entropy-check", "--run", str(out / "run.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: run artifact slices.csv line 21: {expected}")

    @pytest.mark.parametrize("key, index, value, name", [
        ("times", 2, float("nan"), "slice times"),
        ("times", 1, float("inf"), "slice times"),
        ("breakpoints", 3, float("nan"), "spatial breakpoints"),
    ])
    def test_non_finite_mesh_entry_is_a_config_error_naming_it(self, tmp_path, capsys,
                                                               key, index, value, name):
        cfg, out = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        path = Path(out, "run.json")
        meta = json.loads(path.read_text())
        meta["mesh"][key][index] = value
        path.write_text(json.dumps(meta))
        assert main(["entropy-check", "--run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: {name}[{index}] is not finite: {value!r}")

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

    @pytest.mark.parametrize("entries, key", [
        ({"meshes": "8,x"}, "meshes"),
        ({"meshes": "8,16.5"}, "meshes"),
        ({"meshes": "16,8"}, "meshes"),
        ({"meshes": "0,8"}, "meshes"),
        ({"t_final": "soon"}, "t_final"),
        ({"t_final": "inf"}, "t_final"),
        ({"case": "riemann", "u_left": "x"}, "u_left"),
        ({"case": "riemann", "u_right": "0,1"}, "u_right"),
        ({"order_band": "0.5"}, "order_band"),
        ({"order_band": "nan,nan"}, "order_band"),
        ({"order_band": "1.0,x"}, "order_band"),
        ({"order_band": "2.0,1.0"}, "order_band"),
    ], ids=lambda v: ",".join(f"{k}={w}" for k, w in v.items()) if isinstance(v, dict) else v)
    def test_malformed_entry_is_a_config_error_naming_its_key(self, tmp_path, capsys,
                                                              entries, key):
        # checked before any run: no study is written
        section = {"meshes": "8,16", "t_final": "0.2", **entries}
        cfg, out = write_config(tmp_path, extra="\n[convergence]\n" + "".join(
            f"{k} = {v}\n" for k, v in section.items()))
        assert main(["convergence", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: [convergence] {key}: ")
        assert not Path(out, "convergence.json").exists()


class TestMeshReportCommand:
    def test_report_written(self, tmp_path):
        cfg, out = write_config(
            tmp_path, extra="\n[mesh_report]\nregion = 0.0 0.1 0.0 0.5\n")
        assert main(["mesh-report", "--config", cfg]) == EXIT_OK
        payload = json.loads(Path(out, "mesh_report.json").read_text())
        assert payload["regularity"]["max_vertical_faces_per_cell"] == 2
        assert payload["summary"]["admissibility"]["admissible"] is True
        assert payload["regularity"]["cells_per_slab_in_region_max"] is not None

    @pytest.mark.parametrize("region, fault", [
        ("a b c d", "could not convert string to float: 'a'"),
        ("0.0 0.1 0.0", "expected four numbers 'T0 T1 X0 X1'"),
        ("nan 0.1 0.0 0.5", "bounds must be finite"),
        ("0.0 inf 0.0 0.5", "bounds must be finite"),
        ("0.1 0.0 0.0 0.5", "needs T0 < T1 and X0 < X1"),
        ("0.1 0.1 0.0 0.5", "needs T0 < T1 and X0 < X1"),
        ("0.0 0.1 0.5 0.5", "needs T0 < T1 and X0 < X1"),
    ])
    def test_bad_region_is_a_config_error_naming_it(self, tmp_path, capsys, region, fault):
        cfg, out = write_config(tmp_path, extra=f"\n[mesh_report]\nregion = {region}\n")
        assert main(["mesh-report", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: [mesh_report] region = {region!r}: {fault}")
        assert not os.path.exists(out)


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
