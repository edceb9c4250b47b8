"""``verify_run`` in blocks of slabs against its per-slab oracle.

``oracle_verify_run`` is ``verify_run`` as it ran before blocks: every check
family slab by slab, each check lattice built for its own check, q of every
state by its own table call, and the smooth-pair tables from the per-face
panel rule (``OracleSmoothFaceEntropy``).  The block verifier must give its
report bit for bit, on every run and at every block size, and raise its
exception with its text.  The oracle keeps its tolerance rule and leaves
slice 0's fluxes unchecked: on a run whose fluxes are finite and whose
slice 0 holds q of its states, neither changes a bit.
"""

import glob
import importlib
import re
import sys
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_ranges, capacity_field, make_solver, step_bd

from spacetime_fvm import entropy, harness, presets, scheme
from spacetime_fvm.config import load_config, parse_config
from spacetime_fvm.entropy import (
    SMOOTH_PANEL_NODES,
    SMOOTH_PANELS,
    CheckSummary,
    DecompositionStates,
    EntropyPair,
    EntropyReport,
    KruzkovPair,
    SmoothFaceEntropy,
    cell_entropy_residuals,
    decomposition_states,
    face_entropy_residuals,
    kruzkov_lattice,
    smooth_entropy_numerical_flux,
    square_pair,
    verify_run,
    _boundary_condition_gaps,
    _cell_sides,
    _CheckLattice,
    _cell_residuals,
    _decompose,
    _face_residuals,
    _kruzkov_points,
    _one_slab_points,
    _plain_faces,
    _positive_max,
)
from spacetime_fvm.forms import gauss_legendre
from spacetime_fvm.mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    ValueOutsideImage,
    build_triangulation,
)
from spacetime_fvm.scheme import (
    BoundaryData,
    NumericalFluxSpec,
    RunConfig,
    SliceState,
    Solver,
    select_timestep,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


# ---------------------------------------------------------------------------
# the oracle: the per-slab verifier
# ---------------------------------------------------------------------------

class OracleSmoothFaceEntropy(SmoothFaceEntropy):
    """:class:`SmoothFaceEntropy` with its table from the per-face panel rule, uncached."""

    def __init__(self, pair, table):
        self.pair, self.table = pair, table
        rule = gauss_legendre(SMOOTH_PANEL_NODES)
        self._gx, self._gw = rule.nodes[:, 0], rule.weights
        lo, hi = min(table.u_range[0], 0.0), max(table.u_range[1], 0.0)
        h = (hi - lo) / SMOOTH_PANELS
        n_neg = int(np.ceil(-lo / h))
        starts = h * np.arange(-n_neg, int(np.ceil(hi / h)))
        panels = self._panels(np.broadcast_to(starts, (table.n_faces, starts.size)), h)
        down = -np.cumsum(panels[:, :n_neg][:, ::-1], axis=1)[:, ::-1]
        up = np.cumsum(panels[:, n_neg:], axis=1)
        self._h, self._n_neg, self._starts = h, n_neg, starts
        self._cumulative = np.concatenate([down, np.zeros((table.n_faces, 1)), up[:, :-1]], axis=1)


def oracle_decompose(slab, state, q_own, plain):
    tol = slab.solver.cfg.inversion_tol
    values = state.values
    report = slab.lambdas()
    lam, lam_hat = report.lam, report.lam_hat
    u_left, u_right, g_left, g_right, q_lr = plain
    nb = np.stack([u_left[slab.left_idx], u_right[slab.right_idx]], axis=1)
    sides = _cell_sides(q_lr, g_left, g_right, slab.left_idx, slab.right_idx)
    delta_q = np.stack([q_uv - q_uu for q_uv, q_uu, _ in sides], axis=1)
    delta_q_bar = np.stack([q_uv - q_vv for q_uv, _, q_vv in sides], axis=1)
    zero = lam_hat <= 0.0
    flat_tol = 1e-11 * (1.0 + float(np.max(np.abs(state.fluxes))))
    if np.any(np.abs(delta_q[zero]) > flat_tol) or np.any(np.abs(delta_q_bar[zero]) > flat_tol):
        raise ValueOutsideImage("flux varies across a face whose lambda ratio is zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(zero, 0.0, delta_q / np.where(zero, 1.0, lam))
        scaled_bar = np.where(zero, 0.0, delta_q_bar / np.where(zero, 1.0, lam))
    q_nb = slab.table_plus.q(nb)
    skip = np.concatenate([zero, zero], axis=1)
    targets = np.where(skip, slab.table_plus.image_lo[:, None],
                       np.concatenate([q_own[:, None] - scaled, q_nb + scaled_bar], axis=1))
    states = np.where(skip, np.concatenate([np.stack([values, values], axis=1), nb], axis=1),
                      slab.table_plus.invert(targets, tol=tol))
    q_states = slab.table_plus.q(states)
    lo = np.minimum(q_own[:, None], q_nb)
    hi = np.maximum(q_own[:, None], q_nb)
    scale = 1.0 + np.abs(lo) + np.abs(hi)
    bracket = max(
        float(np.max(np.maximum(lo - q_states[:, :2], q_states[:, :2] - hi) / scale)),
        float(np.max(np.maximum(lo - q_states[:, 2:], q_states[:, 2:] - hi) / scale)))
    return DecompositionStates(
        slab_index=slab.j, face_states=states[:, :2], anchored_states=states[:, 2:], lam=lam,
        lam_hat=lam_hat, lam_hat_cell=report.lam_hat_cell, delta_q=delta_q,
        delta_q_bar=delta_q_bar, neighbor=nb, q_face_states=q_states[:, :2],
        q_anchored_states=q_states[:, 2:], bracket_residual=bracket)


def oracle_lattice(slab, values, c, extra, plain):
    """The check lattice of one check: its cells' hull points only."""
    lattice = np.unique(np.asarray(c, dtype=float))
    rows = np.column_stack([values, plain[0][slab.left_idx], plain[1][slab.right_idx], *extra])
    start = np.minimum(np.searchsorted(lattice, np.min(rows, axis=1)), lattice.size - 1)
    counts = np.maximum(np.searchsorted(lattice, np.max(rows, axis=1), "right") - start, 1)
    cells = np.repeat(np.arange(slab.m), counts)
    return _CheckLattice(slab, cells, lattice[np.repeat(start + counts - np.cumsum(counts), counts)
                                              + np.arange(cells.size)], plain)


def oracle_face_residuals(slab, decomp, values, c, plain, q_own):
    lattice = oracle_lattice(slab, values, c, (decomp.face_states, decomp.anchored_states), plain)
    q_own = lattice.q(values, q_own)
    zero = decomp.lam_hat <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_lam = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, decomp.lam))[lattice.cells]
    dei, bnd = [], []
    for side, (Q_uv, Q_uu, Q_vv) in enumerate(lattice.sides):
        q_ut = lattice.q(decomp.face_states[:, side])
        q_ub = lattice.q(decomp.anchored_states[:, side])
        q_nb = lattice.q(decomp.neighbor[:, side])
        dei.append(np.maximum(0.0, q_ut - (q_own - inv_lam[:, side] * (Q_uv - Q_uu))))
        bnd.append(np.maximum(0.0, q_ub - (q_nb + inv_lam[:, side] * (Q_uv - Q_vv))))
    return np.stack(dei), np.stack(bnd)


def oracle_cell_residuals(slab, values, values_next, c, plain, q_own, q_next):
    lattice = oracle_lattice(slab, values, c, (values_next,), plain)
    total = lattice.q(values_next, q_next) - lattice.q(values, q_own)
    for Q_uv, Q_uu, _ in lattice.sides:
        total = total + (Q_uv - Q_uu)
    return np.maximum(0.0, total)


def oracle_dissipation_slack(slab, decomp, state, state_next, pair, q_omega_plus, q_omega_minus):
    hull = slab.solver.u_range
    c_mod = pair.convexity_modulus((min(hull[0], 0.0), max(hull[1], 0.0)))
    coeff = (slab.table_plus.dq_min ** 2 / slab.table_plus.dq_max)[:, None]
    diss = float(np.sum(decomp.lam * coeff * (decomp.face_states - state_next.values[:, None]) ** 2))
    boundary_sum = 0.0
    if not slab.periodic:
        for (column, side), b in zip(((0, "left"), (slab.m - 1, "right")), slab.ghost_values()):
            boundary_sum += smooth_entropy_numerical_flux(
                slab, column, side, pair, float(state.values[column]), b)
    lhs = float(np.sum(q_omega_plus)) + c_mod * diss
    rhs = -boundary_sum + float(np.sum(q_omega_minus))
    slacks = [rhs - lhs]
    if abs(float(pair.u(0.0))) < 1e-14 and abs(float(pair.du(0.0))) < 1e-14:
        slacks.append(rhs - c_mod * diss)
    return _positive_max(-np.array(slacks))


def oracle_verify_run(result, tol=None):
    """``verify_run``'s report from its per-slab loop."""
    tri = result.tri
    solver = Solver(tri, result.flux, result.spec, result.bd, result.cfg)
    flux_scale = max(float(np.max(np.abs(s.fluxes))) for s in result.states)
    tol = tol if tol is not None else 1e-9 * (1.0 + flux_scale)
    names = ["decomposition_identity", "bracketing", "face_inequality", "face_inequality_neighbor",
             "cell_inequality", "boundary_condition", "outflow_convexity_square",
             "conservation_identity", "dissipation_slack"]
    per_slab = {n: [] for n in names}
    lattice_sizes = []
    square = square_pair()
    q_omega_minus = OracleSmoothFaceEntropy(square, solver.slice_table(0)).q_omega(
        result.states[0].values)
    for j in range(tri.n_slabs):
        slab = solver.slab(j)
        state, state_next = result.states[j], result.states[j + 1]
        values = state.values
        q_own = slab.table_plus.q(values)
        q_next = slab.table_plus.q(state_next.values)
        plain = _plain_faces(slab, values)
        decomp = oracle_decompose(slab, state, q_own, plain)
        c_vals = kruzkov_lattice(slab, state)
        lattice_sizes.append(int(c_vals.size))
        per_slab["decomposition_identity"].append(float(np.max(
            np.abs(np.sum(decomp.lam * decomp.q_face_states, axis=1) - q_next))))
        per_slab["bracketing"].append(decomp.bracket_residual)
        face, neighbor = oracle_face_residuals(slab, decomp, values, c_vals, plain, q_own)
        per_slab["face_inequality"].append(float(np.max(face)))
        per_slab["face_inequality_neighbor"].append(float(np.max(neighbor)))
        per_slab["cell_inequality"].append(float(np.max(oracle_cell_residuals(
            slab, values, state_next.values, c_vals, plain, q_own, q_next))))
        per_slab["boundary_condition"].append(0.0 if slab.periodic else _positive_max(
            np.concatenate(_boundary_condition_gaps(slab, plain, KruzkovPair(c_vals)))))
        ent = OracleSmoothFaceEntropy(square, slab.table_plus)
        q_omega_plus = ent.q_omega(state_next.values)
        per_slab["outflow_convexity_square"].append(float(np.max(np.maximum(
            0.0, q_omega_plus - np.sum(decomp.lam * ent.q_omega(decomp.face_states), axis=1)))))
        per_slab["conservation_identity"].append(float(np.max(np.abs(q_next - state_next.fluxes))))
        per_slab["dissipation_slack"].append(oracle_dissipation_slack(
            slab, decomp, state, state_next, square, q_omega_plus, q_omega_minus))
        q_omega_minus = q_omega_plus
    checks = []
    for name in names:
        worst = float(np.max(per_slab[name]))
        checks.append(CheckSummary(name=name, max_residual=worst, tol=tol,
                                   n_checked=len(per_slab[name]), passed=bool(worst <= tol)))
    return EntropyReport(checks=checks, per_slab=per_slab, tol=tol, c_lattice_sizes=lattice_sizes)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _solve(setup):
    return Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd, setup.cfg).run()


def _benchmark_runs(name, monkeypatch):
    """The runs of a benchmark workload's "tiny" configs (seed 7), imported read-only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        texts = workloads.WORKLOADS[name].configs(workloads.workload_params(name, 7),
                                                  workloads.SIZES["tiny"][name])
    finally:
        for module in ("tracing", "workloads"):
            sys.modules.pop(module, None)
    return [(_solve(parse_config(text)), None) for text in texts]


# a flux that reads t with a critical point at u = t: slabs before t = 0.3
# have no critical point on [0.3, 1], later ones one, so blocks mix widths
MOVING_SONIC = """
[spacetime]
domain = interval 0 1
t_final = 0.6
[flux]
builtin = custom
wx = u
wt = -0.5 * (u - t) * (u - t)
dwx_du = 1
dwt_du = t - u
[mesh]
nx = 16
cfl_target = 0.25
[scheme]
kind = godunov
[boundary]
u_b = 0.65 + 0.3 * sin(6 * x + t)
[run]
u_min = 0.3
u_max = 1
"""


def _uneven_heights_run():
    """Burgers step data on slabs of alternating heights h, h / 2 and 3 h / 4."""
    flux = presets.burgers_flux((-1.5, 1.5))
    domain, xs = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 13)
    spec, hull = NumericalFluxSpec("godunov_osher"), (0.0, 1.0)
    h = select_timestep(domain, xs, flux, spec, hull, 0.25, 0.2)
    times = np.concatenate([[0.0], np.cumsum(np.resize([h, 0.5 * h, 0.75 * h], 14))])
    tri = build_triangulation(Foliation(times, domain), xs)
    assert np.unique(tri.heights).size >= 3
    return Solver(tri, flux, spec, step_bd(0.4, 1.0, 0.0), RunConfig(u_range=hull)).run()


def _moved_final_slice(shift):
    """A boundary-driven run whose last states are moved by ``shift`` (+, -, NaN, ...) in
    turn: u_plus leaves the hull of the face and anchored states, so the face and cell
    checks read different pairs of the slab's lattice."""
    result = harness.boundary_driven_burgers_case(t_final=0.2).run(12)
    last = result.states[-1]
    last.values[:] = last.values + np.resize(shift, last.values.size)
    return result


HARNESS = {
    "advection": lambda: harness.advection_circle_case().run(40),
    "shock": lambda: harness.burgers_riemann_case(1.0, 0.0).run(40),
    "rarefaction": lambda: harness.burgers_riemann_case(-0.5, 0.5).run(40),
    "boundary": lambda: harness.boundary_driven_burgers_case().run(40),
    "boundary-rusanov": lambda: harness.boundary_driven_burgers_case(
        t_final=0.2, spec=NumericalFluxSpec("rusanov")).run(12),
}
def _few_columns_run(domain, nx):
    """Burgers on one or two columns: a block of one-face or two-face slabs."""
    bd = BoundaryData(u=lambda p: 0.5 + 0.3 * np.sin(2 * np.pi * p[..., 1]))
    return make_solver(presets.burgers_flux((-1.5, 1.5)), domain, 0.1, bd, nx=nx,
                       u_range=(-1.0, 1.0)).run()


OTHER = {"moving-sonic": lambda: _solve(parse_config(MOVING_SONIC)),
         "circle-one-column": lambda: _few_columns_run(CircleDomain(1.0), 1),
         "interval-two-columns": lambda: _few_columns_run(IntervalDomain(0.0, 1.0), 2),
         "uneven-heights": _uneven_heights_run,
         "moved-final-slice": lambda: _moved_final_slice([0.3, 0.0, -0.2, 0.05]),
         "nan-final-state": lambda: _moved_final_slice([0.0] * 5 + [np.nan] + [0.0] * 6)}


def _runs(kind, name, monkeypatch):
    if kind == "config":
        setup = load_config(str(ROOT / "configs" / name))
        return [(_solve(setup), setup.entropy_tol)]
    if kind == "tiny":
        return _benchmark_runs(name, monkeypatch)
    return [({**HARNESS, **OTHER}[name](), None)]


CASES = ([("config", Path(p).name) for p in sorted(glob.glob(str(ROOT / "configs" / "*.ini")))]
         + [("harness", name) for name in HARNESS] + [("other", name) for name in OTHER]
         + [("tiny", name) for name in ("shock_run", "advection_check", "rarefaction_ladder")])


@cache
def _case(name):
    """The run of a harness or other case, built once per session (read only)."""
    return {**HARNESS, **OTHER}[name]()


def _report(result, tol=None) -> tuple:
    report = verify_run(result, tol=tol)
    return report.to_json(), report.c_lattice_sizes


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_reports_equal_the_per_slab_oracle_bit_for_bit(kind, name, monkeypatch):
    for result, tol in _runs(kind, name, monkeypatch):
        oracle = oracle_verify_run(result, tol=tol)
        assert _report(result, tol) == (oracle.to_json(), oracle.c_lattice_sizes)


@pytest.mark.parametrize("name", ["advection", "boundary", "moving-sonic", "uneven-heights"])
def test_every_block_size_gives_the_same_report(name, monkeypatch):
    # blocks of 1, 3 (the last one short) and all slabs against the default,
    # on circle and interval runs
    result = {**HARNESS, **OTHER}[name]()
    m, n = result.tri.n_columns, result.tri.n_slabs
    assert n % 3 != 0
    expected = _report(result)
    for slabs in (1, 3, n):
        monkeypatch.setattr(scheme, "BLOCK_ROWS", slabs * m)
        assert _report(result) == expected, slabs


@pytest.mark.parametrize("name", ["moved-final-slice", "nan-final-state", "boundary-rusanov"])
def test_one_lattice_gives_each_check_its_own_pairs_and_residuals(name):
    # the union of the face and cell checks' pairs, masked, against each
    # check's own lattice and its public function, entry by entry
    result = {**HARNESS, **OTHER}[name]()
    solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
    shared = 0
    for j in range(result.tri.n_slabs):
        slab, state, state_next = solver.slab(j), result.states[j], result.states[j + 1]
        values = state.values
        decomp = decomposition_states(slab, state)
        c = kruzkov_lattice(slab, state)
        plain = _plain_faces(slab, values)
        hulls = ((decomp.face_states, decomp.anchored_states), (state_next.values,))
        points = _one_slab_points(c)
        union = _CheckLattice.in_hulls(slab, values, points, *hulls[:1], plain,
                                       *hulls[1:])
        for extra, mask in zip(hulls, union.masks):
            own = _CheckLattice.in_hulls(slab, values, points, extra, plain)
            assert union.cells[mask].tobytes() == own.cells.tobytes()
            assert union.c[mask].tobytes() == own.c.tobytes()
            shared += int(np.count_nonzero(mask)) < union.cells.size
        face_pairs, cell_pairs = union.masks
        k_own = union.q(values)
        face = _face_residuals(decomp, union, k_own)
        for key, expected in face_entropy_residuals(slab, decomp, state, c).items():
            assert face[key][:, face_pairs].tobytes() == expected.tobytes()
        assert _cell_residuals(state_next.values, union, k_own)[cell_pairs].tobytes() \
            == cell_entropy_residuals(slab, state, state_next, c).tobytes()
    assert shared > 0     # some check reads fewer pairs than the lattice holds


def test_a_failing_block_raises_the_per_slab_error(monkeypatch):
    # states outside the hull in slabs 3 and 5 of one block: slab 5's target
    # sits further out, but slab 3 fails first and its face is named
    result = harness.boundary_driven_burgers_case(t_final=0.2).run(12)
    hi = result.u_range[1]
    result.states[3].values[2] = hi + 0.5
    result.states[5].values[7] = hi + 5.0
    monkeypatch.setattr(scheme, "BLOCK_ROWS", 8 * result.tri.n_columns)
    with pytest.raises(ValueOutsideImage) as expected:
        oracle_verify_run(result)
    assert "('S', 4, 2)" in str(expected.value)
    with pytest.raises(ValueOutsideImage) as raised:
        verify_run(result)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("name", ["shock", "moving-sonic"])
def test_block_tables_name_the_faces_of_their_own_slices(name):
    # row b * m + i of slab j's block table is face ("S", j + 1 + b, i), for a
    # flux that does not read t (tiled rows) and one that does (built rows),
    # and an inversion target outside its image is named by that face
    result = _case(name)
    solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
    m = result.tri.n_columns
    j = solver.block(0).slabs.stop
    block = solver.block(j)
    table = block.table_plus
    assert block.j == j and block.n > 1 and len(table.face_ids) == block.n * m
    assert list(table.face_ids) == [("S", j + 1 + b, i) for b in range(block.n) for i in range(m)]
    for b in range(block.n):
        for i in range(m):
            assert table.face_ids[b * m + i] == ("S", j + 1 + b, i)
    b, i = block.n - 1, m // 2
    targets = table.image_hi.copy()
    targets[b * m + i] += 1.0 + abs(targets[b * m + i])
    face = ("S", j + 1 + b, i)
    with pytest.raises(ValueOutsideImage, match="^" + re.escape(f"face {face}: target ")):
        table.invert(targets)


@pytest.mark.parametrize("flux, domain, u_range", [
    (presets.burgers_flux((-1.5, 1.5)), IntervalDomain(0.0, 1.0), (-0.5, 1.0)),
    (presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), np.cos, (-1.0, 1.5)),
     CircleDomain(2.0 * np.pi), (0.2, 0.8)),
    (capacity_field((lambda x: 1.5 + np.sin(3 * x), lambda x: 3 * np.cos(3 * x)), (-1.2, 1.2)),
     IntervalDomain(0.0, 1.0), (-0.8, -0.2)),
], ids=["burgers", "traveling-density", "capacity-negative-hull"])
def test_u_free_smooth_table_equals_the_per_face_panels(flux, domain, u_range):
    # a declared dq: one (panel, node) factor times each face's dq column
    assert (1,) in flux.u_free_du
    tri = build_triangulation(Foliation(np.array([0.0, 0.1, 0.25]), domain), 12)
    table = SpacelikeTable(tri, flux, 2, u_range=u_range)
    assert table.dq_column is not None
    for pair in (square_pair(), EntropyPair(np.exp, np.exp, name="exp", ddu_fn=np.exp)):
        new = SmoothFaceEntropy(pair, table)._cumulative
        assert new.tobytes() == OracleSmoothFaceEntropy(pair, table)._cumulative.tobytes()


def test_verify_peak_memory_on_the_benchmark_run(monkeypatch):
    # advection_check's full config (seed 7): blocks of ~4 slabs at m = 80
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        [text] = workloads.WORKLOADS["advection_check"].configs(
            workloads.workload_params("advection_check", 7), workloads.SIZES["full"]["advection_check"])
    finally:
        for module in ("tracing", "workloads"):
            sys.modules.pop(module, None)
    result = _solve(parse_config(text))
    assert result.tri.n_columns == 80
    verify_run(result)   # module-level caches (Gauss rules, pairs) are warm
    tracemalloc.start()
    try:
        report = verify_run(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2.5 * 2 ** 20


def _old_kruzkov_lattice(slab, values):
    """``kruzkov_lattice`` as two ``np.unique`` calls per slab."""
    ghosts = [] if slab.periodic else [np.asarray(slab.ghost_values())]
    vals = np.unique(np.round(np.concatenate([values, *ghosts, np.array(slab.solver.u_range)]),
                              12))
    return np.unique(np.concatenate([vals, 0.5 * (vals[:-1] + vals[1:])]))


def _block_inputs(solver, result, block):
    """A block's inflow and outflow states, its plain face arrays and its decomposition."""
    js = block.slabs
    inflow, outflow = (SliceState(block.j + k, None,
                                  np.concatenate([result.states[j + k].values for j in js]),
                                  np.concatenate([result.states[j + k].fluxes for j in js]))
                       for k in (0, 1))
    plain = _plain_faces(block, inflow.values)
    return inflow.values, outflow.values, plain, _decompose(block, inflow, None, None, plain)


def _check_lattice(block, values, values_next, plain, decomp):
    """The face and cell checks' lattice of ``block``, as ``verify_run`` builds it."""
    return _CheckLattice.in_hulls(block, values, _kruzkov_points(block, values),
                                  (decomp.face_states, decomp.anchored_states), plain,
                                  (values_next,))


@given(name=st.sampled_from(sorted({**HARNESS, **OTHER})), slabs=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_block_lattice_is_its_slabs_lattices(name, slabs):
    # the block constructor's pairs, points, masks and face arrays are those of
    # each slab's block of one, concatenated, with cells offset by b * m; each
    # slab's points are the two-unique lattice
    result = _case(name)
    m = result.tri.n_columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "BLOCK_ROWS", slabs * m)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
        for js in block_ranges(result.tri):
            block = solver.block(js.start)
            assert block.slabs == js
            union = _check_lattice(block, *_block_inputs(solver, result, block))
            own = []
            for j in js:
                one = solver.slab(j)
                inputs = _block_inputs(solver, result, one)
                assert _kruzkov_points(one, inputs[0])[0].tobytes() \
                    == _old_kruzkov_lattice(solver.slab(j), inputs[0]).tobytes()
                own.append(_check_lattice(one, *inputs))
            assert union.cells.tobytes() == np.concatenate(
                [lat.cells + b * m for b, lat in enumerate(own)]).tobytes()
            assert union.c.tobytes() == np.concatenate([lat.c for lat in own]).tobytes()
            for k, mask in enumerate(union.masks):
                assert mask.tobytes() == np.concatenate([lat.masks[k] for lat in own]).tobytes()
            for k, side in enumerate(union.sides):
                for i, array in enumerate(side):
                    assert array.tobytes() == np.concatenate(
                        [lat.sides[k][i] for lat in own]).tobytes()
            sizes = [lat.cells.size for lat in own]
            assert union.slab_pairs.tolist() == np.cumsum([0] + sizes[:-1]).tolist()


@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 0.5, np.nan]),
                                 st.floats(-0.5, 1.5)), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_kruzkov_lattice_keeps_the_two_unique_bits(values):
    # signed zeros (np.unique keeps the first zero of its sort), values that
    # round to zero, repeats and NaN states, on an interval run's first slab
    result = _case("boundary-rusanov")
    solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
    slab = solver.slab(0)
    values = np.resize(np.array(values), slab.m)
    state = SliceState(0, None, values, values)
    assert kruzkov_lattice(slab, state).tobytes() == _old_kruzkov_lattice(slab, values).tobytes()


# the cases whose first block can hold 2-6 slabs and leaves a slab after it
MULTI_SLAB_BLOCKS = sorted((set(HARNESS) | set(OTHER))
                           - {"circle-one-column", "interval-two-columns", "uneven-heights"})


@given(name=st.sampled_from(MULTI_SLAB_BLOCKS), slabs=st.integers(2, 6), data=st.data())
@settings(max_examples=20, deadline=None)
def test_a_nan_state_fails_only_its_own_slab(name, slabs, data):
    # a NaN inflow state in one slab of the first block: that slab's face,
    # neighbour and cell maxima are NaN, every other slab keeps its bits
    result = _case(name)
    m = result.tri.n_columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "BLOCK_ROWS", slabs * m)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
        block = solver.block(0)
    assert block.n == slabs and block.slabs.stop < result.tri.n_slabs
    values, values_next, plain, decomp = _block_inputs(solver, result, block)

    def maxima(values):
        lattice = _check_lattice(block, values, values_next, _plain_faces(block, values), decomp)
        face_pairs, cell_pairs = lattice.masks
        k_own = lattice.q(values)
        face = _face_residuals(decomp, lattice, k_own)
        return [lattice.per_slab(face["face_inequality"], face_pairs),
                lattice.per_slab(face["boundary"], face_pairs),
                lattice.per_slab(_cell_residuals(values_next, lattice, k_own), cell_pairs)]

    clean = maxima(values)
    assert np.isfinite(clean).all()
    b = data.draw(st.integers(0, block.n - 1))
    bad = values.copy()
    bad[b * m + data.draw(st.integers(0, m - 1))] = np.nan
    for got, expected in zip(maxima(bad), clean):
        assert np.isnan(got[b])
        assert np.array(got[:b] + got[b + 1:]).tobytes() \
            == np.array(expected[:b] + expected[b + 1:]).tobytes()


@pytest.mark.parametrize("name", ["advection", "boundary-rusanov"])
def test_verify_builds_one_check_lattice_per_block(name, monkeypatch):
    # the face and cell checks of every block read one lattice (blocks of 4
    # slabs, the last one short), which holds every cell of the block; an
    # interval run's boundary condition adds one lattice per slab on its two
    # boundary cells; no slab is built on the way
    result = _case(name)
    monkeypatch.setattr(scheme, "BLOCK_ROWS", 4 * result.tri.n_columns)
    blocks, n = block_ranges(result.tri), result.tri.n_slabs
    assert n % 4 != 0 and len(blocks) == -(-n // 4) > 1
    built, slabs = [], []
    init = _CheckLattice.__init__

    def recording(self, slab, cells, *args):
        whole = np.unique(cells).size == slab.n * slab.m   # a block's lattice, not a boundary one
        built.append(slab.slabs if whole else None)
        init(self, slab, cells, *args)

    monkeypatch.setattr(_CheckLattice, "__init__", recording)
    monkeypatch.setattr(scheme.Solver, "slab", lambda self, j: slabs.append(j))
    assert verify_run(result).passed
    assert [js for js in built if js is not None] == blocks
    assert built.count(None) == (0 if result.tri.periodic else n)
    assert slabs == []
