"""Config ingestion: sectioned key-value files describing a run.

A run config is an INI-style file with sections ``[spacetime]``,
``[flux]``, ``[mesh]``, ``[scheme]``, ``[boundary]``, ``[run]``,
``[entropy]`` and ``[output]``.  Coefficients and boundary data are
arithmetic expressions in ``t``, ``x`` and (for flux coefficients) ``u``;
see :mod:`spacetime_fvm.expressions` for the accepted grammar.

Example::

    [spacetime]
    domain = interval 0 1
    t_final = 0.25

    [flux]
    builtin = burgers

    [mesh]
    nx = 64
    cfl_target = 0.25

    [scheme]
    kind = godunov

    [boundary]
    u_b = sign(x - 0.5)
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import ExpressionError, compile_expression
from .fluxfield import FluxField, RectangleDomain
from .forms import ParamForm
from .mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    Triangulation,
    build_triangulation,
    uniform_times,
)
from .presets import burgers_flux, linear_advection_flux, traveling_density_flux
from .scheme import (
    CFL_LIMIT,
    BoundaryData,
    FluxKind,
    NumericalFluxSpec,
    RunConfig,
    data_hull,
    select_timestep,
)

__all__ = ["ConfigError", "RunSetup", "load_config", "parse_config", "setup_from_config"]

_FD_STATE_STEP = 1e-6


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunSetup:
    """Everything needed to execute a configured run."""

    flux: FluxField
    domain: IntervalDomain | CircleDomain
    t_final: float
    breakpoints: np.ndarray
    spec: NumericalFluxSpec
    bd: BoundaryData
    cfg: RunConfig
    hbar: float | None
    entropy_tol: float | None
    output_dir: str
    formats: tuple[str, ...]
    raw: dict[str, dict[str, str]]

    def triangulation(self) -> Triangulation:
        hbar = self.hbar
        if hbar is None:
            hull = self.cfg.u_range
            if hull is None:
                raise ConfigError("internal: state hull must be resolved before meshing")
            hbar = select_timestep(self.domain, self.breakpoints, self.flux, self.spec,
                                   hull, self.cfg.cfl_target, self.t_final)
        fol = Foliation(uniform_times(self.t_final, hbar), self.domain)
        return build_triangulation(fol, self.breakpoints)


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None,
         required: bool = False) -> str | None:
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if required:
        raise ConfigError(f"[{section}] {key}: required key is missing")
    return default


def _get_float(cp, section, key, default=None, required=False) -> float | None:
    raw = _get(cp, section, key, None, required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number ({raw!r})") from exc


def _get_int(cp, section, key, default=None, required=False) -> int | None:
    raw = _get(cp, section, key, None, required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer ({raw!r})") from exc


def _get_bool(cp, section, key, default: bool) -> bool:
    raw = _get(cp, section, key, None)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def _parse_domain(text: str):
    parts = text.split()
    if not parts:
        raise ConfigError("[spacetime] domain: empty value")
    kind = parts[0].lower()
    if kind == "interval":
        if len(parts) != 3:
            raise ConfigError("[spacetime] domain: expected 'interval A B'")
        return IntervalDomain(float(parts[1]), float(parts[2]))
    if kind == "circle":
        if len(parts) != 2:
            raise ConfigError("[spacetime] domain: expected 'circle LENGTH'")
        return CircleDomain(float(parts[1]))
    raise ConfigError(f"[spacetime] domain: unknown kind {kind!r}")


def _expr_coefficient(source: str, section: str, key: str) -> Callable:
    try:
        expr = compile_expression(source, variables=("t", "x", "u"))
    except ExpressionError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def fn(pts, u, _e=expr):
        t, x, u = pts[..., 0], pts[..., 1], np.asarray(u, dtype=float)
        return _e(t=t, x=x, u=np.broadcast_to(u, np.broadcast(t, u).shape))   # u at every node

    fn.names = expr.names
    return fn


def _custom_flux(cp: configparser.ConfigParser, domain, u_range) -> FluxField:
    wx_src = _get(cp, "flux", "wx", required=True)
    wt_src = _get(cp, "flux", "wt", required=True)
    wx = _expr_coefficient(wx_src, "flux", "wx")
    wt = _expr_coefficient(wt_src, "flux", "wt")

    dwx_src = _get(cp, "flux", "dwx_du")
    dwt_src = _get(cp, "flux", "dwt_du")

    def fd_du(fn):
        def dfn(pts, u, _f=fn):
            u = np.asarray(u, dtype=float)
            return (_f(pts, u + _FD_STATE_STEP) - _f(pts, u - _FD_STATE_STEP)) \
                / (2.0 * _FD_STATE_STEP)
        dfn.names = fn.names           # reads what its base reads
        return dfn

    dwx = _expr_coefficient(dwx_src, "flux", "dwx_du") if dwx_src else fd_du(wx)
    dwt = _expr_coefficient(dwt_src, "flux", "dwt_du") if dwt_src else fd_du(wt)

    chart = RectangleDomain((0.0, domain.a), (1.0, domain.b),
                            periodic_axes=(1,) if domain.periodic else ())
    omega = ParamForm(1, 2, {(0,): wt, (1,): wx}, {(0,): dwt, (1,): dwx}, u_range)
    flux = FluxField(omega=omega, domain=chart, name="custom",
                     reads_t=any("t" in fn.names for fn in (wx, wt, dwx, dwt)),
                     u_free_du=frozenset(idx for idx, fn in (((0,), dwt), ((1,), dwx))
                                         if "u" not in fn.names))
    pts = chart.sample_points(5)
    us = np.linspace(u_range[0], u_range[1], 5)
    for name, fn in (("wx", wx), ("wt", wt), ("dwx_du" if dwx_src else "du of wx", dwx),
                     ("dwt_du" if dwt_src else "du of wt", dwt)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.broadcast_to(fn(pts[:, None, :], us), (len(pts), len(us)))
        if not np.all(np.isfinite(vals)):
            i, k = np.argwhere(~np.isfinite(vals))[0]
            raise ConfigError(f"[flux] {name}: not finite at (t, x) = ({float(pts[i, 0])!r}, "
                              f"{float(pts[i, 1])!r}) for u = {float(us[k])!r}: "
                              f"{float(vals[i, k])!r}")
    flux.omega.check_du_consistency(pts, us, tol=1e-4)
    return flux


def _resolve_flux(cp: configparser.ConfigParser, domain, u_range) -> FluxField:
    builtin = (_get(cp, "flux", "builtin", "custom") or "custom").lower()
    chart = RectangleDomain((0.0, domain.a), (1.0, domain.b),
                            periodic_axes=(1,) if domain.periodic else ())
    if builtin == "burgers":
        return burgers_flux(u_range, domain=chart)
    if builtin == "advection":
        speed = _get_float(cp, "flux", "speed", 1.0)
        return linear_advection_flux(speed, u_range, domain=chart)
    if builtin == "traveling_density":
        return traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s),
                                      u_range=u_range, domain=chart)
    if builtin == "custom":
        return _custom_flux(cp, domain, u_range)
    raise ConfigError(f"[flux] builtin: unknown flux id {builtin!r}")


def parse_config(text: str) -> RunSetup:
    """Parse and validate a config document into a ready-to-run setup."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in ("spacetime", "mesh", "boundary"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    domain = _parse_domain(_get(cp, "spacetime", "domain", required=True))
    t_final = _get_float(cp, "spacetime", "t_final", required=True)
    if t_final is None or t_final < 0.0:
        raise ConfigError("[spacetime] t_final: must be non-negative")

    nx = _get_int(cp, "mesh", "nx", required=True)
    if nx is None or nx < 1:
        raise ConfigError("[mesh] nx: need at least one spatial cell")
    breakpoints_src = _get(cp, "mesh", "breakpoints")
    if breakpoints_src:
        breakpoints = np.array([float(v) for v in breakpoints_src.split(",")])
    else:
        breakpoints = np.linspace(domain.a, domain.b, nx + 1)

    cfl_target = _get_float(cp, "mesh", "cfl_target", 0.25)
    if not 0.0 < cfl_target <= CFL_LIMIT:
        raise ConfigError(f"[mesh] cfl_target: must lie in (0, {CFL_LIMIT}]")
    hbar = _get_float(cp, "mesh", "dt")
    if hbar is not None and hbar <= 0.0:
        raise ConfigError("[mesh] dt: must be positive")

    kind_raw = (_get(cp, "scheme", "kind", "godunov") or "godunov").lower() \
        if cp.has_section("scheme") else "godunov"
    kind_map = {"godunov": FluxKind.GODUNOV_OSHER, "godunov_osher": FluxKind.GODUNOV_OSHER,
                "rusanov": FluxKind.RUSANOV, "antidiffusive": FluxKind.ANTI_DIFFUSIVE,
                "anti_diffusive": FluxKind.ANTI_DIFFUSIVE}
    if kind_raw not in kind_map:
        raise ConfigError(f"[scheme] kind: unknown numerical flux {kind_raw!r}")
    rusanov_speed = _get_float(cp, "scheme", "rusanov_speed") \
        if cp.has_section("scheme") else None
    spec = NumericalFluxSpec(kind=kind_map[kind_raw], rusanov_speed=rusanov_speed)
    enforce_cfl = _get_bool(cp, "scheme", "enforce_cfl", True) \
        if cp.has_section("scheme") else True

    ub_src = _get(cp, "boundary", "u_b", required=True)
    try:
        ub_expr = compile_expression(ub_src, variables=("t", "x"))
    except ExpressionError as exc:
        raise ConfigError(f"[boundary] u_b: {exc}") from exc
    alpha_src = _get(cp, "boundary", "alpha_b", "1")
    try:
        alpha_expr = compile_expression(alpha_src, variables=("t", "x"))
    except ExpressionError as exc:
        raise ConfigError(f"[boundary] alpha_b: {exc}") from exc

    bd = BoundaryData(
        u=lambda p, _e=ub_expr: _e(t=p[..., 0], x=p[..., 1]),
        alpha_density=lambda p, _e=alpha_expr: _e(t=p[..., 0], x=p[..., 1]))

    u_min = _get_float(cp, "run", "u_min") if cp.has_section("run") else None
    u_max = _get_float(cp, "run", "u_max") if cp.has_section("run") else None
    if (u_min is None) != (u_max is None):
        raise ConfigError("[run] u_min/u_max: give both bounds or neither")
    hull = None
    if u_min is not None:
        if not u_min < u_max:
            raise ConfigError("[run] u_min/u_max: need u_min < u_max")
        hull = (u_min, u_max)

    # the flux needs a state range for its caches: hull override or data
    # scan; the scan also runs under an override, to reject non-finite data
    try:
        scanned = data_hull(bd, domain, t_final)
    except ValueError as exc:
        raise ConfigError(f"[boundary] u_b: {exc}") from exc
    flux_range = hull if hull is not None else scanned

    flux = _resolve_flux(cp, domain, flux_range)

    tol = _get_float(cp, "run", "inversion_tol", 1e-12) if cp.has_section("run") else 1e-12
    cfg = RunConfig(cfl_target=cfl_target, inversion_tol=tol, u_range=flux_range,
                    enforce_cfl=enforce_cfl)

    entropy_tol = _get_float(cp, "entropy", "tol") if cp.has_section("entropy") else None

    output_dir = _get(cp, "output", "directory", "out") if cp.has_section("output") else "out"
    formats_raw = _get(cp, "output", "formats", "csv,json") \
        if cp.has_section("output") else "csv,json"
    formats = tuple(f.strip() for f in formats_raw.split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"[output] formats: unknown format {f!r}")
    if "csv" not in formats:
        raise ConfigError("[output] formats: must include csv, the state table "
                          "that run.json points at")

    raw = {name: dict(cp.items(name)) for name in cp.sections()}
    return RunSetup(flux=flux, domain=domain, t_final=t_final, breakpoints=breakpoints,
                    spec=spec, bd=bd, cfg=cfg, hbar=hbar,
                    entropy_tol=entropy_tol,
                    output_dir=output_dir, formats=formats, raw=raw)


def load_config(path: str) -> RunSetup:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def setup_from_config(raw: dict[str, dict[str, str]]) -> RunSetup:
    """Rebuild a setup from the section dict embedded in a run artifact."""
    cp = configparser.ConfigParser()
    cp.read_dict(raw)
    buf = io.StringIO()
    cp.write(buf)
    return parse_config(buf.getvalue())
