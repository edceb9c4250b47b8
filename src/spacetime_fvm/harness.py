"""Reference solutions, experiment drivers and reproduction of the
classification examples.

The oracles are closed-form entropy solutions: transport along
characteristics for geometry-compatible unit-speed fields (the density
rides along with the state, so initial data is transported unchanged) and
the standard shock/rarefaction solution of the flat quadratic flux.
Errors are measured in the flux-induced slice measure, the pullback of
the state derivative of the flux at a fixed reference state, which is the
canonical choice the flux itself provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .entropy import TestFunction, _kruzkov
from .fluxfield import (
    FaceKind,
    FluxField,
    check_geometry_compatible,
    check_hyperbolicity,
    classify_face,
)
from .forms import gauss_legendre
from .mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    Triangulation,
    build_triangulation,
    segment_nodes,
    uniform_times,
)
from .presets import (
    annulus_example,
    burgers_flux,
    square_with_hole_example,
    traveling_density_flux,
)
from .scheme import (
    BoundaryData,
    NumericalFluxSpec,
    RunConfig,
    RunResult,
    Solver,
    data_hull,
    select_timestep,
)

__all__ = [
    "AppendixReport",
    "BurgersRiemann",
    "CharacteristicsLinear",
    "ConvergenceStudy",
    "RunCase",
    "TraceStudy",
    "appendix_examples",
    "advection_circle_case",
    "burgers_riemann_case",
    "boundary_driven_burgers_case",
    "bump_test_function",
    "convergence_study",
    "l1_error",
    "trace_convergence_check",
]


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicsLinear:
    """Transport oracle for unit-speed geometry-compatible linear fields.

    Valid for fluxes whose conserved density rides along straight
    characteristics, e.g. ``phi(x - t) u (dx - dt)``: the solution is the
    initial data evaluated at ``x - t`` (wrapped on circles).
    """

    u0: Callable[[np.ndarray], np.ndarray]
    domain: IntervalDomain | CircleDomain
    speed: float = 1.0

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        s = x - self.speed * np.asarray(t, dtype=float)
        if self.domain.periodic:
            length = self.domain.length
            s = self.domain.a + (s - self.domain.a) % length
        return np.asarray(self.u0(s), dtype=float)


@dataclass(frozen=True)
class BurgersRiemann:
    """Shock / rarefaction solution of the flat quadratic flux.

    A decreasing jump travels as a shock at the arithmetic mean speed; an
    increasing jump opens a self-similar fan with the state equal to the
    similarity variable inside.
    """

    u_left: float
    u_right: float
    x_jump: float = 0.5

    def __call__(self, t, x):
        t = float(t)
        x = np.asarray(x, dtype=float)
        xi = x - self.x_jump
        if self.u_left == self.u_right or t <= 0.0:
            return np.where(xi < 0.0, self.u_left, self.u_right)
        if self.u_left > self.u_right:
            s = 0.5 * (self.u_left + self.u_right)
            return np.where(xi < s * t, self.u_left, self.u_right)
        fan = xi / t
        return np.clip(fan, self.u_left, self.u_right)


# ---------------------------------------------------------------------------
# error measurement and convergence fitting
# ---------------------------------------------------------------------------

def l1_error(result: RunResult, oracle: Callable, slice_index: int | None = None,
             u_ref: float = 0.0, n_nodes: int = 20) -> float:
    """Slice error in the flux-induced measure at the reference state.

    Integrates |u_h - u_exact| against the magnitude of the pulled-back
    state derivative of the flux at ``u_ref`` (per-cell Gauss nodes).
    """
    tri = result.tri
    j = tri.n_slices - 1 if slice_index is None else int(slice_index)
    t = float(tri.times[j])
    values = result.states[j].values
    xs = tri.breakpoints
    pts, weights = segment_nodes(gauss_legendre(n_nodes), 1, t, xs[:-1], xs[1:])
    weight = np.abs(result.flux.omega.du_coeffs[(1,)](pts, u_ref))
    err = np.abs(values[:, None] - oracle(t, pts[..., 1]))
    return float(np.sum(weights * weight * err))


@dataclass
class ConvergenceStudy:
    mesh_sizes: list[int]
    h_values: list[float]
    errors: list[float]
    order: float

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))

    def to_dict(self) -> dict:
        return {"mesh_sizes": self.mesh_sizes, "h_values": self.h_values,
                "errors": self.errors, "order": self.order,
                "strictly_decreasing": self.strictly_decreasing}


def fit_order(h_values: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(h_values, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# runnable experiment cases
# ---------------------------------------------------------------------------

@dataclass
class RunCase:
    """A complete experiment: flux, domain, horizon, data and oracle."""

    name: str
    flux: FluxField
    domain: IntervalDomain | CircleDomain
    t_final: float
    bd: BoundaryData
    spec: NumericalFluxSpec = field(default_factory=NumericalFluxSpec)
    cfl_target: float = 0.25
    u_range: tuple[float, float] | None = None
    oracle: Callable | None = None

    def build(self, nx: int) -> tuple[Triangulation, RunConfig]:
        xs = np.linspace(self.domain.a, self.domain.b, nx + 1)
        cfg = RunConfig(cfl_target=self.cfl_target, u_range=self.u_range)
        hull = self.u_range if self.u_range is not None \
            else data_hull(self.bd, self.domain, self.t_final)
        hbar = select_timestep(self.domain, xs, self.flux, self.spec, hull,
                               self.cfl_target, self.t_final)
        fol = Foliation(uniform_times(self.t_final, hbar), self.domain)
        return build_triangulation(fol, xs), cfg

    def run(self, nx: int) -> RunResult:
        tri, cfg = self.build(nx)
        return Solver(tri, self.flux, self.spec, self.bd, cfg).run()


def convergence_study(case: RunCase, mesh_sizes: Sequence[int],
                      slice_index: int | None = None, u_ref: float = 0.0) -> ConvergenceStudy:
    """Run the case over a refinement path and fit the error order."""
    if case.oracle is None:
        raise ValueError("convergence studies need a case with an oracle")
    sizes = [int(n) for n in mesh_sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("mesh sizes must be strictly increasing")
    errors = []
    h_values = []
    for nx in sizes:
        result = case.run(nx)
        errors.append(l1_error(result, case.oracle, slice_index=slice_index, u_ref=u_ref))
        h_values.append(case.domain.length / nx)
    return ConvergenceStudy(mesh_sizes=sizes, h_values=h_values, errors=errors,
                            order=fit_order(h_values, errors))


def advection_circle_case(u0: Callable | None = None, t_final: float = 0.5,
                          spec: NumericalFluxSpec | None = None,
                          cfl_target: float = 0.25) -> RunCase:
    """Unit-speed transport of smooth data by the traveling-density field."""
    domain = CircleDomain(2.0 * np.pi)
    flux = traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s),
                                  u_range=(-1.5, 1.5))
    u0 = u0 if u0 is not None else (lambda x: 0.5 + 0.25 * np.sin(x))
    bd = BoundaryData(u=lambda p: u0(p[..., 1]))
    oracle = CharacteristicsLinear(u0=u0, domain=domain)
    return RunCase(name="advection_circle", flux=flux, domain=domain, t_final=t_final,
                   bd=bd, spec=spec if spec is not None else NumericalFluxSpec(),
                   cfl_target=cfl_target, u_range=(-1.0, 1.0), oracle=oracle)


def burgers_riemann_case(u_left: float, u_right: float, t_final: float = 0.3,
                         x_jump: float = 0.5,
                         spec: NumericalFluxSpec | None = None,
                         cfl_target: float = 0.25) -> RunCase:
    """Riemann data for the flat quadratic flux on the unit interval.

    The horizon is short enough that the wave stays inside the domain, so
    the vertical boundary traces remain the constant far-field states.
    """
    domain = IntervalDomain(0.0, 1.0)
    lo = min(u_left, u_right)
    hi = max(u_left, u_right)
    flux = burgers_flux((lo - 0.5, hi + 0.5))
    bd = BoundaryData(u=lambda p: np.where(p[..., 1] < x_jump, u_left, u_right))
    oracle = BurgersRiemann(u_left=u_left, u_right=u_right, x_jump=x_jump)
    return RunCase(name=f"burgers_riemann_{u_left:g}_{u_right:g}", flux=flux,
                   domain=domain, t_final=t_final, bd=bd,
                   spec=spec if spec is not None else NumericalFluxSpec(),
                   cfl_target=cfl_target, u_range=(lo, hi), oracle=oracle)


def boundary_driven_burgers_case(u_inflow: float = 0.9, u_initial: float = 0.1,
                                 t_final: float = 0.6,
                                 spec: NumericalFluxSpec | None = None) -> RunCase:
    """Constant initial state overtaken by stronger inflow from the left."""
    domain = IntervalDomain(0.0, 1.0)
    flux = burgers_flux((min(u_initial, u_inflow) - 0.5, max(u_initial, u_inflow) + 0.5))

    def u_b(p):
        on_initial = np.abs(p[..., 0]) < 1e-14
        return np.where(on_initial, u_initial, u_inflow)

    bd = BoundaryData(u=u_b)
    return RunCase(name="burgers_boundary_driven", flux=flux, domain=domain,
                   t_final=t_final, bd=bd,
                   spec=spec if spec is not None else NumericalFluxSpec(),
                   cfl_target=0.25, u_range=(min(u_initial, u_inflow),
                                             max(u_initial, u_inflow)))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    mask = np.abs(s) < 1.0
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - s[mask] ** 2))
    return out


def _dbump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    mask = np.abs(s) < 1.0
    sm = s[mask]
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - sm ** 2)) * (-2.0 * sm / (1.0 - sm ** 2) ** 2)
    return out


def bump_test_function(t_center: float, x_center: float,
                       t_radius: float, x_radius: float) -> TestFunction:
    """Smooth compactly supported bump with analytic gradient."""

    def fn(p):
        return _bump((p[..., 0] - t_center) / t_radius) \
            * _bump((p[..., 1] - x_center) / x_radius)

    def grad(p):
        st = (p[..., 0] - t_center) / t_radius
        sx = (p[..., 1] - x_center) / x_radius
        return np.stack([_dbump(st) / t_radius * _bump(sx),
                         _bump(st) * _dbump(sx) / x_radius], axis=-1)

    return TestFunction(fn=fn, grad=grad)


# ---------------------------------------------------------------------------
# boundary trace convergence
# ---------------------------------------------------------------------------

@dataclass
class TraceStudy:
    mesh_sizes: list[int]
    h_values: list[float]
    distances: list[float]
    order: float

    @property
    def decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.distances, self.distances[1:]))

    def to_dict(self) -> dict:
        return {"mesh_sizes": self.mesh_sizes, "h_values": self.h_values,
                "distances": self.distances, "order": self.order,
                "decreasing": self.decreasing}


def first_slice_trace_distance(result: RunResult) -> float:
    """Kruzkov distance between the first interior slice and the inflow data.

    Both states live on the same spatial partition (the inflow data enters
    through its per-cell averaged values), so the distance is the slice sum
    of ``q(u v b) - q(u ^ b)``.
    """
    tri = result.tri
    table = SpacelikeTable(tri, result.flux, 1, rule=result.cfg.rule(),
                           u_range=result.u_range)
    u1 = result.states[1].values
    b = result.states[0].values  # per-cell inflow-data averages
    return float(np.sum(_kruzkov(table.q, b, u1)))


def trace_convergence_check(case: RunCase, mesh_sizes: Sequence[int]) -> TraceStudy:
    """Refinement study of the first-slice distance to the inflow data."""
    sizes = [int(n) for n in mesh_sizes]
    distances = []
    h_values = []
    for nx in sizes:
        result = case.run(nx)
        distances.append(first_slice_trace_distance(result))
        h_values.append(case.domain.length / nx)
    return TraceStudy(mesh_sizes=sizes, h_values=h_values, distances=distances,
                      order=fit_order(h_values, distances))


# ---------------------------------------------------------------------------
# classification examples
# ---------------------------------------------------------------------------

@dataclass
class AppendixReport:
    annulus_hyperbolic: bool
    annulus_min_coefficient: float
    annulus_geometry_residual: float
    annulus_classes: dict[str, str]
    hole_hyperbolic: bool
    hole_classes: dict[str, str]
    hole_inflow: tuple[str, ...]

    @property
    def annulus_spacelike_boundary_count(self) -> int:
        return sum(1 for v in self.annulus_classes.values()
                   if v != FaceKind.NOT_SPACELIKE.value)

    @property
    def matches_expected(self) -> bool:
        return (self.annulus_hyperbolic
                and self.annulus_spacelike_boundary_count == 0
                and self.hole_hyperbolic
                and set(self.hole_inflow) == {"outer_bottom", "hole_top"}
                and self.hole_classes["outer_top"] == FaceKind.SPACELIKE_OUTFLOW.value
                and self.hole_classes["hole_bottom"] == FaceKind.SPACELIKE_OUTFLOW.value)

    def to_dict(self) -> dict:
        return {
            "annulus": {
                "hyperbolic": self.annulus_hyperbolic,
                "min_coefficient": self.annulus_min_coefficient,
                "geometry_residual": self.annulus_geometry_residual,
                "boundary_classes": self.annulus_classes,
                "spacelike_boundary_count": self.annulus_spacelike_boundary_count,
            },
            "square_with_hole": {
                "hyperbolic": self.hole_hyperbolic,
                "boundary_classes": self.hole_classes,
                "inflow": list(self.hole_inflow),
            },
            "matches_expected": self.matches_expected,
        }


def appendix_examples() -> AppendixReport:
    """Classify both reference geometries and compare with the known answer.

    The annulus field is hyperbolic but its boundary circles are nowhere
    spacelike (so no inflow data can be posed); the square-with-hole field
    is hyperbolic with inflow exactly on the outer bottom edge and the top
    edge of the hole.
    """
    flux_a, obs_a, boundary_a = annulus_example()
    rep_a = check_hyperbolicity(flux_a, obs_a)
    geo_a = check_geometry_compatible(flux_a, tol=1e-8)
    classes_a = {piece.name: classify_face(piece.face, piece.normal, flux_a).kind.value
                 for piece in boundary_a}

    flux_h, obs_h, boundary_h = square_with_hole_example()
    rep_h = check_hyperbolicity(flux_h, obs_h)
    classes_h = {piece.name: classify_face(piece.face, piece.normal, flux_h).kind.value
                 for piece in boundary_h}
    inflow = tuple(name for name, kind in classes_h.items()
                   if kind == FaceKind.SPACELIKE_INFLOW.value)

    return AppendixReport(
        annulus_hyperbolic=rep_a.passed,
        annulus_min_coefficient=rep_a.min_coefficient,
        annulus_geometry_residual=geo_a.max_residual,
        annulus_classes=classes_a,
        hole_hyperbolic=rep_h.passed,
        hole_classes=classes_h,
        hole_inflow=inflow,
    )
