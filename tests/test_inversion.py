"""The total-flux inversion against its bracketed_root-only oracle.

``oracle_invert`` is ``mesh._invert_increasing`` without the settle step:
every inversion runs :func:`~spacetime_fvm.mesh.bracketed_root` on the whole
array.  The inversion must give its bits, or raise its exception with its
text, on every target, every table and every run.  ``Solver.run``, which
speculates with the first Newton iterate and certifies batches of slabs,
must give the bits and errors of a loop of ``Slab.step`` over this oracle.
"""

import glob
import importlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacetime_fvm import harness, presets
from spacetime_fvm import mesh as mesh_module
from spacetime_fvm import scheme as scheme_module
from spacetime_fvm.config import load_config, parse_config
from spacetime_fvm.entropy import verify_run
from spacetime_fvm.mesh import (
    ROOT_MAX_STEPS,
    ConvergenceError,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    ValueOutsideImage,
    _invert_increasing,
    bracketed_root,
    build_triangulation,
)
from spacetime_fvm.scheme import (
    BATCH_ROWS,
    CFL_LIMIT,
    CFLViolation,
    NumericalFluxSpec,
    RunConfig,
    Slab,
    Solver,
    VerticalFluxes,
)

from conftest import block_ranges, step_bd

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def oracle_invert(q_of, dq_of, values, u_range, image_lo, image_hi, face_ids, tol,
                  q_mid=None, dq_column=None):
    """The inversion as bracketed_root alone computes it (``dq_column`` unread)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        image_lo, image_hi, q_mid = (e if e is None else np.broadcast_to(e[:, None], values.shape)
                                     for e in (image_lo, image_hi, q_mid))
    scale = np.maximum(1.0, np.abs(values))
    tol_abs = tol * scale

    def at_fault(score):
        k = np.unravel_index(int(np.argmax(score)), values.shape)
        return k, f"face {face_ids[k[0]]}" + (f", state column {k[1]}" if len(k) == 2 else "")

    inside = (values >= image_lo - tol_abs) & (values <= image_hi + tol_abs)
    if not inside.all():
        k, at = at_fault(np.maximum(image_lo - values, values - image_hi))
        raise ValueOutsideImage(f"{at}: target {float(values[k])!r} outside image "
                                f"[{float(image_lo[k])!r}, {float(image_hi[k])!r}]")
    at_lo = values <= image_lo
    at_hi = values >= image_hi
    ftol = max(tol, 1e-13) * scale
    u = np.where(at_lo, u_range[0], np.where(at_hi, u_range[1], 0.5 * (u_range[0] + u_range[1])))
    fw = None if q_mid is None else \
        np.where(at_lo, image_lo, np.where(at_hi, image_hi, q_mid)) - values
    u, r, open_ = bracketed_root(lambda w: q_of(w) - values, u, np.where(at_hi, u, u_range[0]),
                                 np.where(at_lo, u, u_range[1]), image_lo - values,
                                 image_hi - values, df=dq_of, tol=ftol, fw=fw)
    if open_.any():
        k, at = at_fault(np.where(open_, np.abs(r) / scale, -1.0))
        stop = (f"at iterate u = {float(u[k])!r} with residual nan" if np.isnan(r[k]) else
                f"after {ROOT_MAX_STEPS} iterations with residual {float(abs(r[k]))!r} "
                f"(tolerance {float(ftol[k])!r})")
        raise ConvergenceError(f"{at}: total-flux inversion of target "
                               f"{float(values[k])!r} stopped {stop}")
    return u


FLUXES = {
    "burgers": presets.burgers_flux((-1.0, 1.0)),
    "capacity": presets.capacity_flux(lambda x: 2.0 + 0.5 * np.sin(3.0 * x + 0.2),
                                      lambda x: 1.5 * np.cos(3.0 * x + 0.2),
                                      lambda u: 0.5 * np.asarray(u) ** 2,
                                      lambda u: np.asarray(u), (-1.0, 1.5)),
    "traveling": presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s)),
}
# (0, 1) puts image_lo at 0 for the Burgers table, so 1e-323 above it is a target
U_RANGES = [(0.0, 1.0), (-0.7, 1.3), (0.25, 0.5)]


def make_table(flux_name, m, u_range, dq_fault=None, row=0):
    tri = build_triangulation(Foliation(np.array([0.0, 0.1, 0.3]), IntervalDomain(0.0, 1.0)), m)
    table = SpacelikeTable(tri, FLUXES[flux_name], 1, u_range=u_range)
    assert table.dq_column is not None   # every flux here declares dq u-free
    if dq_fault is not None:
        table.dq_column = table.dq_column.copy()
        table.dq_column[row] = {"zero": 0.0, "nan": np.nan}[dq_fault]
    return table


def outcome(invert):
    """The bits of an inversion, or its exception type and text."""
    try:
        u = invert()
    except (ValueOutsideImage, ConvergenceError) as exc:
        return type(exc), str(exc)
    return u.shape, u.dtype, u.tobytes()


def both(table, values, tol=1e-12, q_of=None):
    """(the table's inversion, the oracle's) of ``values``, each as :func:`outcome`;
    ``q_of`` replaces the table's q in both."""
    if q_of is None:
        q_of = table.q
        mine = outcome(lambda: table.invert(values, tol))
    else:
        mine = outcome(lambda: _invert_increasing(
            q_of, table.dq, values, table.u_range, table.image_lo, table.image_hi,
            table.face_ids, tol, q_mid=table.q_mid, dq_column=table.dq_column))
    theirs = outcome(lambda: oracle_invert(q_of, table.dq, values, table.u_range, table.image_lo,
                                           table.image_hi, table.face_ids, tol,
                                           q_mid=table.q_mid))
    return mine, theirs


def targets(table, kinds, fractions, columns, tol=1e-12):
    """Targets of the given kinds per (face, state), shape (m,) or (m, columns)."""
    m = table.n_faces
    shape = (m,) if columns is None else (m, columns)
    kinds = np.resize(np.asarray(kinds), shape)
    f = np.resize(np.asarray(fractions), shape)
    lo, hi, mid = (e if columns is None else e[:, None]
                   for e in (table.image_lo, table.image_hi, table.q_mid))
    lo, hi, mid = (np.broadcast_to(e, shape) for e in (lo, hi, mid))
    end = np.where(kinds == 3, lo, hi)
    near_end = end + (2.0 * f - 1.0) * tol * np.maximum(1.0, np.abs(end))
    choices = [
        lo + f * (hi - lo),                  # across the image
        lo,                                  # exactly at each end
        hi,
        near_end,                            # within tol of each end
        near_end,
        lo + 1e-323,                         # 1e-323 above image_lo
        np.nextafter(lo, np.inf),
        mid,                                 # exactly at q_mid, and within rounding of it
        mid + (2.0 * f - 1.0) * 8.0 * np.spacing(mid),
    ]
    return np.choose(kinds, choices)


class TestOracleProperty:
    @given(flux_name=st.sampled_from(sorted(FLUXES)), u_range=st.sampled_from(U_RANGES),
           m=st.integers(1, 6), columns=st.sampled_from([None, 1, 3]),
           kinds=st.lists(st.integers(0, 8), min_size=1, max_size=18),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=18),
           dq_fault=st.sampled_from([None, None, "zero", "nan"]), row=st.integers(0, 5),
           tol=st.sampled_from([1e-12, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_inversion_equals_the_oracle_bit_for_bit(self, flux_name, u_range, m, columns,
                                                     kinds, fractions, dq_fault, row, tol):
        table = make_table(flux_name, m, u_range, dq_fault, row % m)
        mine, theirs = both(table, targets(table, kinds, fractions, columns, tol), tol)
        assert mine == theirs

    @pytest.mark.parametrize("columns", [None, 2])
    @pytest.mark.parametrize("flux_name", sorted(FLUXES))
    def test_errors_equal_the_oracle(self, flux_name, columns):
        table = make_table(flux_name, 4, (-0.7, 1.3))
        inner = targets(table, [0], [0.3], columns)
        for bad in (np.nan, float(np.max(table.image_hi)) + 1.0):
            values = inner.copy()
            values[(2,) if columns is None else (2, 1)] = bad
            mine, theirs = both(table, values)
            assert mine == theirs and mine[0] is ValueOutsideImage

        # q turns NaN on row 1 away from the midpoint: at the second iterate
        mid = 0.5 * sum(table.u_range)
        row = (np.arange(4) == 1) if columns is None else (np.arange(4) == 1)[:, None]

        def nan_q(u):
            return np.where(row & (u != mid), np.nan, table.q(u))

        mine, theirs = both(table, inner, q_of=nan_q)
        assert mine == theirs
        assert mine[0] is ConvergenceError and mine[1].endswith("with residual nan")

        # q NaN at the midpoint of row 1: the first iterate
        table.q_mid = np.where(np.arange(4) == 1, np.nan, table.q_mid)
        mine, theirs = both(table, inner)
        assert mine == theirs
        assert mine[0] is ConvergenceError and mine[1].endswith(f"u = {mid!r} with residual nan")


@pytest.fixture
def counted_roots(monkeypatch):
    """The number of calls of ``bracketed_root`` from inside ``mesh``: the inversions."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return bracketed_root(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "bracketed_root", counting)
    return calls


def count_per_inversion(monkeypatch, invert):
    """Patch ``invert`` in as the inversion; list its (q calls, dq calls) per call."""
    counts = []

    def counting(q_of, dq_of, *args, **kwargs):
        n = [0, 0]

        def q(u):
            n[0] += 1
            return q_of(u)

        def dq(u):
            n[1] += 1
            return dq_of(u)

        u = invert(q, dq, *args, **kwargs)
        counts.append(tuple(n))
        return u

    monkeypatch.setattr(mesh_module, "_invert_increasing", counting)
    return counts


NON_AFFINE = "\n".join([
    "[spacetime]", "domain = interval 0 1", "t_final = 0.15",
    "[flux]", "builtin = custom", "wx = u + 0.2 * u * u * u", "wt = -0.5 * u * u",
    "dwx_du = 1 + 0.6 * u * u", "dwt_du = -u",
    "[mesh]", "nx = 24", "cfl_target = 0.25",
    "[scheme]", "kind = godunov",
    "[boundary]", "u_b = 0.8 * (0.5 - 0.5 * sign(x - 0.4)) - 0.2 * (0.5 + 0.5 * sign(x - 0.4))",
    "[run]", "u_min = -0.2", "u_max = 0.8",
])


def _solver(setup):
    return Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd, setup.cfg)


def solve(setup):
    return _solver(setup).run()


class TestPath:
    def test_riemann_straggler_run_and_verify_never_enter_bracketed_root(self, counted_roots):
        result = harness.burgers_riemann_case(1.0, 0.0).run(80)
        verify_run(result)
        assert counted_roots == []

    def test_boundary_driven_run_never_enters_bracketed_root(self, counted_roots):
        harness.boundary_driven_burgers_case().run(80)
        assert counted_roots == []

    def test_non_affine_flux_takes_bracketed_root_with_the_oracle_calls(self, monkeypatch):
        setup = parse_config(NON_AFFINE)
        assert (1,) not in setup.flux.u_free_du
        oracle_counts = count_per_inversion(monkeypatch, oracle_invert)
        expected = solve(setup)
        counts = count_per_inversion(monkeypatch, _invert_increasing)
        roots = []
        monkeypatch.setattr(mesh_module, "bracketed_root",
                            lambda *a, **k: roots.append(1) or bracketed_root(*a, **k))
        result = solve(setup)
        assert counts == oracle_counts and len(roots) == len(counts) == result.tri.n_slabs
        assert all(q > 0 and dq > 0 for q, dq in counts)
        for a, b in zip(result.states, expected.states):
            assert a.values.tobytes() == b.values.tobytes()


def _benchmark_configs(name, monkeypatch):
    """The "tiny" config texts of a benchmark workload, imported read-only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        return workloads.WORKLOADS[name].configs(workloads.workload_params(name, 7),
                                                 workloads.SIZES["tiny"][name])
    finally:
        for module in ("tracing", "workloads"):
            sys.modules.pop(module, None)


HARNESS_CASES = {
    "advection": harness.advection_circle_case,
    "shock": lambda: harness.burgers_riemann_case(1.0, 0.0),
    "rarefaction": lambda: harness.burgers_riemann_case(-0.5, 0.5),
    "boundary": harness.boundary_driven_burgers_case,
}


def _solvers(kind, name, monkeypatch):
    """(new solver, entropy tolerance) makers of one guarded case: config file, harness
    case at nx = 80 or workload."""
    if kind == "config":
        setup = load_config(str(ROOT / "configs" / name))
        return [(lambda: _solver(setup), setup.entropy_tol)]
    if kind == "harness":
        case = HARNESS_CASES[name]()
        tri, cfg = case.build(80)
        return [(lambda: Solver(tri, case.flux, case.spec, case.bd, cfg), None)]
    return [(lambda setup=parse_config(text): _solver(setup), None)
            for text in _benchmark_configs(name, monkeypatch)]


def _runs(kind, name, monkeypatch):
    """The results of one guarded case: config file, harness case or workload."""
    return [(make().run(), tol) for make, tol in _solvers(kind, name, monkeypatch)]


GUARDED = ([("config", Path(p).name) for p in sorted(glob.glob(str(ROOT / "configs" / "*.ini")))]
           + [("harness", name) for name in HARNESS_CASES]
           + [("tiny", name) for name in ("shock_run", "advection_check", "rarefaction_ladder")])


@pytest.mark.parametrize("kind, name", GUARDED, ids=[f"{k}-{n}" for k, n in GUARDED])
def test_runs_and_reports_equal_the_oracle_bit_for_bit(kind, name, monkeypatch):
    def outputs():
        return [([s.values.tobytes() for s in result.states], verify_run(result, tol=tol).to_json())
                for result, tol in _runs(kind, name, monkeypatch)]

    mine = outputs()
    monkeypatch.setattr(mesh_module, "_invert_increasing", oracle_invert)
    assert outputs() == mine


# ---------------------------------------------------------------------------
# Solver.run's speculative steps against a loop of Slab.step
# ---------------------------------------------------------------------------

def slab_loop(solver):
    """``Solver.run``'s states and ``lambda_max`` as a plain loop of :meth:`Slab.step`."""
    states, lambda_max = [solver.initial_state()], []
    for j in range(solver.tri.n_slabs):
        slab = solver.slab(j)
        report = slab.lambdas()
        lambda_max.append(report.max_cell_ratio())
        if solver.cfg.enforce_cfl and not report.passed:
            raise CFLViolation(f"slab {j}: max cell ratio {report.max_cell_ratio():.6f} "
                               f"exceeds {CFL_LIMIT}; shrink the slab height")
        states.append(slab.step(states[-1]))
    return states, lambda_max


def run_bits(run):
    """The bits of ``run()``'s (states, lambda_max), or its exception type and text."""
    try:
        states, lambda_max = run()
    except Exception as exc:
        return type(exc), str(exc)
    return ([(s.slice_index, s.face_ids.blocks, s.values.tobytes(), s.fluxes.tobytes())
             for s in states], np.array(lambda_max).tobytes())


def solver_run(solver):
    result = solver.run()
    return result.states, result.lambda_max


def certificates(tri, reads_t):
    """The inversions of a run whose certificates all pass: one per batch of
    ``BATCH_ROWS // m`` slabs, a batch ending with its block for a flux that reads t."""
    size = max(1, BATCH_ROWS // tri.n_columns)
    runs = block_ranges(tri) if reads_t else [range(tri.n_slabs)]
    return sum(-(-len(run) // size) for run in runs)


@pytest.mark.parametrize("kind, name", GUARDED, ids=[f"{k}-{n}" for k, n in GUARDED])
def test_run_equals_the_oracle_slab_loop_bit_for_bit(kind, name, monkeypatch):
    makers = [make for make, _ in _solvers(kind, name, monkeypatch)]
    runs = [run_bits(lambda: solver_run(make())) for make in makers]
    monkeypatch.setattr(mesh_module, "_invert_increasing", oracle_invert)
    assert [run_bits(lambda: slab_loop(make())) for make in makers] == runs
    assert all(isinstance(states, list) for states, _ in runs)   # no run raised


@pytest.mark.parametrize("kind, name", GUARDED, ids=[f"{k}-{n}" for k, n in GUARDED])
def test_one_inversion_per_certificate_and_no_root_search(kind, name, monkeypatch,
                                                           counted_roots):
    # the targets of burgers_riemann_case(1.0, 0.0) and configs/burgers_shock.ini lie
    # within rounding of an image end: their first iterates must settle too, with no
    # rewind and no slab stepped alone
    makers = [make for make, _ in _solvers(kind, name, monkeypatch)]
    counts = count_per_inversion(monkeypatch, _invert_increasing)
    expected = 0
    for make in makers:
        solver = make()
        solver.run()
        expected += certificates(solver.tri, solver.flux.reads_t)
    assert len(counts) == expected and counted_roots == []
    assert all(q == 1 for q, _ in counts)


@pytest.mark.parametrize("case", ["shock", "advection"])
@pytest.mark.parametrize("where", ["first", "middle", "last of a batch"])
def test_a_speculated_state_one_ulp_off_takes_the_certificates_states(case, where,
                                                                       monkeypatch):
    # SpacelikeTable.first_iterate is what the speculative step reads and _settle is
    # not: a wrong bit in slab k's states must rewind the run to the certificate's
    tri, cfg = HARNESS_CASES[case]().build(80)
    k = {"first": 0, "middle": 21, "last of a batch": min(BATCH_ROWS // 80, tri.n_slabs) - 1}
    bad, row = k[where], 37

    def make():
        c = HARNESS_CASES[case]()
        return Solver(tri, c.flux, c.spec, c.bd, cfg)

    expected = run_bits(lambda: slab_loop(make()))
    first_iterate, rhs, moved, at = SpacelikeTable.first_iterate, Slab.rhs, [], [None]

    def rhs_of(slab, state):   # a first iterate follows its slab's rhs
        at[0] = slab.j
        return rhs(slab, state)

    def one_ulp_off(table, values):
        u = first_iterate(table, values)
        if at[0] == bad:
            moved.append(u[row])
            u[row] = np.nextafter(u[row], np.inf)
        return u

    monkeypatch.setattr(Slab, "rhs", rhs_of)
    monkeypatch.setattr(SpacelikeTable, "first_iterate", one_ulp_off)
    assert run_bits(lambda: solver_run(make())) == expected
    assert len(moved) == 1   # taken once: the certificate's states replace it


def four_runs(reads_t, monkeypatch, scales=(1.0, 1.5, 1.0, 0.75)):
    """(mesh, solver maker) of heights ``scales`` (1, 1.5, 1, 0.75) times 2^-7 in runs
    of 5, 2, 4 and 3 slabs (blocks of two), for Burgers declared to read t or not."""
    flux = replace(presets.burgers_flux((-1.2, 1.2)), reads_t=reads_t)
    heights = 2.0 ** -7 * np.repeat(scales, [5, 2, 4, 3])
    tri = build_triangulation(Foliation(np.concatenate([[0.0], np.cumsum(heights)]),
                                        IntervalDomain(0.0, 1.0)), 10)
    monkeypatch.setattr(scheme_module, "BLOCK_ROWS", 2 * tri.n_columns)
    return tri, lambda: Solver(tri, flux, NumericalFluxSpec(), step_bd(0.45, 1.0, -0.2),
                               RunConfig(u_range=(-0.2, 1.0)))


@pytest.mark.parametrize("batch", ["32 slabs", "one slab"])
@pytest.mark.parametrize("reads_t", [False, True], ids=["t-free", "reads-t"])
def test_a_run_of_one_height_steps_on_one_slab(reads_t, batch, monkeypatch):
    # a flux that does not read t asks for one Slab per run of one height and
    # moves no block per slab: on_slice/on_slab repeat the first slab of each
    # run's first block, and move no other block; one that reads t asks for
    # every slab and moves nothing.  Either way, in batches of 32 slabs or of
    # one, the run has the bits of the oracle slab loop: states, face ids and
    # lambda_max
    tri, make = four_runs(reads_t, monkeypatch)
    if batch == "one slab":
        monkeypatch.setattr(scheme_module, "BATCH_ROWS", tri.n_columns)
    asked, moves = [], []
    slab, on_slice, on_slab = Solver.slab, SpacelikeTable.on_slice, VerticalFluxes.on_slab
    with monkeypatch.context() as patch:
        patch.setattr(Solver, "slab", lambda self, j: asked.append(j) or slab(self, j))
        patch.setattr(SpacelikeTable, "on_slice", lambda table, *args: moves.append(
            len(table.face_ids) // tri.n_columns) or on_slice(table, *args))
        patch.setattr(VerticalFluxes, "on_slab", lambda vert, *args: moves.append(
            vert.n_faces // tri.n_nodes) or on_slab(vert, *args))
        runs = run_bits(lambda: solver_run(make()))
    assert isinstance(runs[0], list)   # the run did not raise
    starts = [0, 5, 7, 11]
    assert asked == (list(range(tri.n_slabs)) if reads_t else starts)
    assert moves == ([] if reads_t else [1] * 8)   # slabs moved from
    monkeypatch.setattr(mesh_module, "_invert_increasing", oracle_invert)
    assert run_bits(lambda: slab_loop(make())) == runs


def table_bits(table):
    """A spacelike table's slices, ids and row arrays, as bytes."""
    return (table.slice_index, table.t, table.face_ids.blocks,
            [getattr(table, name).tobytes() for name in SpacelikeTable.ROWS
             if getattr(table, name) is not None])


@pytest.mark.parametrize("reads_t", [False, True], ids=["t-free", "reads-t"])
def test_a_slab_builds_or_moves_its_own_block_alone(reads_t, monkeypatch):
    # Solver.slab(j) at the first slab of a block builds or moves that block
    # and no other: every table and node row it makes lies in the block's
    # slices and slabs.  A slab's inflow table, read when asked for, has the
    # bytes of slice j's table on a new solver
    tri, make = four_runs(reads_t, monkeypatch)
    init, on_slice = SpacelikeTable.__init__, SpacelikeTable.on_slice
    vert_init, on_slab = VerticalFluxes.__init__, VerticalFluxes.on_slab
    for block in block_ranges(tri):
        solver, slices, starts = make(), set(), set()
        with monkeypatch.context() as patch:
            patch.setattr(SpacelikeTable, "__init__", lambda table, tri, flux, js, **kw: (
                slices.update(np.atleast_1d(js).tolist()) or init(table, tri, flux, js, **kw)))
            patch.setattr(SpacelikeTable, "on_slice", lambda table, tri, js: (
                slices.update(js) or on_slice(table, tri, js)))
            patch.setattr(VerticalFluxes, "__init__", lambda vert, x, t_lo, *args: (
                starts.update(np.atleast_1d(t_lo).tolist()) or vert_init(vert, x, t_lo, *args)))
            patch.setattr(VerticalFluxes, "on_slab", lambda vert, t_lo: (
                starts.update(t_lo.tolist()) or on_slab(vert, t_lo)))
            solver.slab(block.start)
        assert slices == set(range(block.start + 1, block.stop + 1)), block
        assert starts == set(tri.times[block.start:block.stop].tolist()), block
        assert list(solver._blocks) == [block.start]
    solver = make()
    for j in range(tri.n_slabs):
        assert table_bits(solver.slab(j).table_minus) == table_bits(make().slice_table(j)), j


@pytest.mark.parametrize("reads_t", [False, True], ids=["t-free", "reads-t"])
def test_a_run_relabels_no_table_it_caches(reads_t, monkeypatch):
    # one nominal height: a flux that does not read t steps every slab on slab
    # 0, whose outflow table is the solver's cached slice 1; after the run that
    # table still names slice 1, and every state its own slice (the oracle's)
    tri, make = four_runs(reads_t, monkeypatch, scales=(1.0,) * 4)
    solver = make()
    runs = run_bits(lambda: solver_run(solver))
    assert isinstance(runs[0], list) and (1 in solver._tables) is not reads_t
    table = solver.slice_table(1)
    assert table.face_ids.blocks == (("S", 1, 1, tri.n_columns),) and table.slice_index == 1
    monkeypatch.setattr(mesh_module, "_invert_increasing", oracle_invert)
    assert run_bits(lambda: slab_loop(make())) == runs


def test_a_rewind_steps_on_a_slab_of_its_own_height(monkeypatch):
    # one batch holds the 14 slabs of the four runs: a wrong bit in slab 2's
    # states rewinds the run to slab 3, inside the first run, after the batch
    # went on to the last run; slab 3 steps on a new slab of its own height
    tri, make = four_runs(False, monkeypatch)
    expected = run_bits(lambda: slab_loop(make()))
    first_iterate, rhs, asked, slab = SpacelikeTable.first_iterate, Slab.rhs, [], Solver.slab
    at = [None]

    def rhs_of(stepped, state):   # a first iterate follows its slab's rhs
        at[0] = stepped.j
        return rhs(stepped, state)

    def one_ulp_off(table, values):
        u = first_iterate(table, values)
        if at[0] == 2:
            u[4] = np.nextafter(u[4], np.inf)
        return u

    monkeypatch.setattr(Slab, "rhs", rhs_of)
    monkeypatch.setattr(SpacelikeTable, "first_iterate", one_ulp_off)
    monkeypatch.setattr(Solver, "slab", lambda self, j: asked.append(j) or slab(self, j))
    assert run_bits(lambda: solver_run(make())) == expected
    assert asked == [0, 5, 7, 11, 3, 5, 7, 11]


JUMP = "\n".join([
    "[spacetime]", "domain = interval 0 1", "t_final = 0.2",
    "[flux]", "builtin = custom", "wx = u + 0.1 * sign(u - 0.45)", "wt = -0.5 * u * u",
    "dwx_du = 1", "dwt_du = -u",
    "[mesh]", "nx = 40", "cfl_target = 0.25",
    "[scheme]", "kind = godunov",
    "[boundary]", "u_b = sign(x - 0.5) * (-0.45) + 0.45",
    "[run]", "u_min = 0", "u_max = 1",
])


class TestErrorsOfTheSlabLoop:
    """Through ``Solver.run``, the exception type and text of the slab-by-slab loop."""

    def test_jump_flux_stops_the_inversion(self):
        # q jumps at u = 0.45: the sampled dq check passes, the certificate does not
        setup = parse_config(JUMP)
        expected = run_bits(lambda: slab_loop(_solver(setup)))
        assert expected[0] is ConvergenceError and "after 100 iterations" in expected[1]
        assert run_bits(lambda: solver_run(_solver(setup))) == expected

    @pytest.mark.parametrize("case", ["shock", "advection"])
    @pytest.mark.parametrize("bad", [0, 5, 42])
    def test_nan_target_is_outside_the_image(self, case, bad, monkeypatch):
        # the NaN spreads through the speculated slabs after it, and the
        # certificate that meets it raises
        rhs = Slab.rhs

        def nan_row(slab, state):
            out = rhs(slab, state)
            if slab.j == bad:
                out[3] = np.nan
            return out

        monkeypatch.setattr(Slab, "rhs", nan_row)
        c = HARNESS_CASES[case]()
        tri, cfg = c.build(80)
        expected = run_bits(lambda: slab_loop(Solver(tri, c.flux, c.spec, c.bd, cfg)))
        assert expected == (ValueOutsideImage, expected[1])
        assert expected[1].startswith(f"face ('S', {bad + 1}, 3): target nan outside image")
        assert run_bits(lambda: solver_run(Solver(tri, c.flux, c.spec, c.bd, cfg))) == expected

    @pytest.mark.parametrize("case", ["shock", "advection"])
    def test_cfl_breach_names_its_slab(self, case):
        # slab 30 is four slabs tall, inside the first batch
        c = HARNESS_CASES[case]()
        tri, cfg = c.build(80)
        times = np.delete(tri.times, [31, 32, 33])
        tri = build_triangulation(Foliation(times, tri.domain), tri.breakpoints)
        expected = run_bits(lambda: slab_loop(Solver(tri, c.flux, c.spec, c.bd, cfg)))
        assert expected[0] is CFLViolation and expected[1].startswith("slab 30: ")
        assert run_bits(lambda: solver_run(Solver(tri, c.flux, c.spec, c.bd, cfg))) == expected
