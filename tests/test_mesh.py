import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_flux

from spacetime_fvm import harness, presets
from spacetime_fvm import mesh as mesh_module
from spacetime_fvm.fluxfield import FaceKind, FluxField, classify_face
from spacetime_fvm.forms import (
    CoordinateForm,
    ParamForm,
    gauss_legendre,
    integrate_over_face,
    pullback,
)
from spacetime_fvm.mesh import (
    Cell,
    CircleDomain,
    ConvergenceError,
    Face,
    Foliation,
    IntervalDomain,
    MeshError,
    ROOT_MAX_STEPS,
    ROOT_STEP_TOL,
    SliceFaceIds,
    SpacelikeTable,
    Triangulation,
    ValueOutsideImage,
    _invert_increasing,
    bracketed_root,
    build_triangulation,
    face_sums,
    mesh_regularity_report,
    segment_nodes,
    uniform_times,
)


def interval_tri(n_slabs=4, nx=8, t_final=1.0, a=0.0, b=1.0):
    fol = Foliation(np.linspace(0.0, t_final, n_slabs + 1), IntervalDomain(a, b))
    return build_triangulation(fol, nx)


def face_table(flux, x_lo, x_hi, t=0.1, **kwargs):
    """The one-column SpacelikeTable of the face ``[x_lo, x_hi]`` at time ``t``."""
    tri = build_triangulation(Foliation(np.array([0.0, t]), IntervalDomain(x_lo, x_hi)), 1)
    return SpacelikeTable(tri, flux, 1, **kwargs)


class TestBuildTriangulation:
    def test_product_counts_interval(self):
        tri = interval_tri(4, 8)
        s = tri.summary()
        assert s["n_cells"] == 32
        assert s["n_spacelike_faces"] == 40
        assert s["n_vertical_faces"] == 9 * 4
        assert s["n_boundary_vertical_faces"] == 2 * 4
        assert s["admissibility"]["admissible"]

    def test_product_counts_circle(self):
        fol = Foliation(np.linspace(0.0, 0.2, 3), CircleDomain(2 * np.pi))
        tri = build_triangulation(fol, 3)
        s = tri.summary()
        assert s["n_cells"] == 6
        assert s["n_spacelike_faces"] == 9
        assert s["n_vertical_faces"] == 6
        assert s["n_boundary_vertical_faces"] == 0
        assert s["admissibility"]["admissible"]

    def test_nonuniform_partition_accepted(self):
        fol = Foliation(np.array([0.0, 0.5, 1.0]), IntervalDomain(0.0, 1.0))
        tri = build_triangulation(fol, np.array([0.0, 0.5, 0.6, 1.0]))
        report = tri.admissibility_report()
        assert all(report.values())

    def test_non_partition_rejected(self):
        fol = Foliation(np.array([0.0, 1.0]), IntervalDomain(0.0, 1.0))
        with pytest.raises(MeshError):
            build_triangulation(fol, np.array([0.0, 0.6, 0.5, 1.0]))
        with pytest.raises(MeshError):
            build_triangulation(fol, np.array([0.1, 0.5, 1.0]))

    def test_foliation_invariants(self):
        with pytest.raises(MeshError):
            Foliation(np.array([0.1, 0.5]), IntervalDomain(0.0, 1.0))
        with pytest.raises(MeshError):
            Foliation(np.array([0.0, 0.4, 0.4]), IntervalDomain(0.0, 1.0))

    @pytest.mark.parametrize("times, fault", [
        ([0.0, np.nan, 1.0], r"slice times\[1\] is not finite: nan"),
        ([0.0, np.inf], r"slice times\[1\] is not finite: inf"),
        ([np.nan, 0.5, 1.0], r"slice times\[0\] is not finite: nan"),
        ([0.0, 0.5, -np.inf], r"slice times\[2\] is not finite: -inf"),
    ])
    def test_non_finite_slice_times_rejected_naming_the_entry(self, times, fault):
        # NaN compares False both ways, so the ordering checks alone pass it
        with pytest.raises(MeshError, match=fault):
            Foliation(np.array(times), IntervalDomain(0.0, 1.0))

    @pytest.mark.parametrize("xs, fault", [
        ([0.0, np.nan, 1.0], r"spatial breakpoints\[1\] is not finite: nan"),
        ([0.0, 0.5, 0.7, np.inf], r"spatial breakpoints\[3\] is not finite: inf"),
    ])
    def test_non_finite_breakpoints_rejected_naming_the_entry(self, xs, fault):
        fol = Foliation(np.array([0.0, 1.0]), IntervalDomain(0.0, 1.0))
        with pytest.raises(MeshError, match=fault):
            build_triangulation(fol, np.array(xs))

    def test_cell_topology(self):
        tri = interval_tri(2, 3)
        cell = tri.cells[("K", 1, 1)]
        assert cell.inflow_face == ("S", 1, 1)
        assert cell.outflow_face == ("S", 2, 1)
        assert cell.vertical_faces == (("V", 1, 1), ("V", 1, 2))
        face = tri.faces[("V", 1, 1)]
        assert not face.boundary
        assert set(face.neighbors) == {("K", 1, 0), ("K", 1, 1)}

    def test_circle_wraparound_neighbors(self):
        fol = Foliation(np.array([0.0, 0.1]), CircleDomain(1.0))
        tri = build_triangulation(fol, 4)
        cell = tri.cells[("K", 0, 3)]
        assert cell.vertical_faces == (("V", 0, 3), ("V", 0, 0))
        face = tri.faces[("V", 0, 0)]
        assert set(face.neighbors) == {("K", 0, 3), ("K", 0, 0)}


def eager_mesh(times, xs, periodic):
    """Reference: every face and cell of the product mesh, stored in id order."""
    n_slabs, m = len(times) - 1, len(xs) - 1
    faces, cells = {}, {}
    for j in range(n_slabs + 1):
        for i in range(m):
            nbrs = tuple(c for c in (("K", j - 1, i) if j > 0 else None,
                                     ("K", j, i) if j < n_slabs else None) if c is not None)
            faces[("S", j, i)] = Face(("S", j, i), "spacelike", j in (0, n_slabs), nbrs,
                                      float(times[j]), float(times[j]),
                                      float(xs[i]), float(xs[i + 1]))
    for j in range(n_slabs):
        for k in range(m if periodic else m + 1):
            if periodic:
                left, right = ("K", j, (k - 1) % m), ("K", j, k)
            else:
                left = ("K", j, k - 1) if k > 0 else None
                right = ("K", j, k) if k < m else None
            faces[("V", j, k)] = Face(("V", j, k), "vertical", left is None or right is None,
                                      tuple(c for c in (left, right) if c is not None),
                                      float(times[j]), float(times[j + 1]),
                                      float(xs[k]), float(xs[k]))
    for j in range(n_slabs):
        for i in range(m):
            right_node = (i + 1) % m if periodic else i + 1
            cells[("K", j, i)] = Cell(("K", j, i), j, i, float(times[j]), float(times[j + 1]),
                                      float(xs[i]), float(xs[i + 1]), ("S", j, i),
                                      ("S", j + 1, i), (("V", j, i), ("V", j, right_node)))
    return faces, cells


class TestMeshViews:
    @pytest.fixture(params=["interval", "circle"])
    def tri(self, request):
        times = np.array([0.0, 0.1, 0.25, 0.3])
        if request.param == "interval":
            return build_triangulation(Foliation(times, IntervalDomain(-1.0, 2.0)),
                                       np.array([-1.0, -0.2, 0.5, 0.6, 2.0]))
        return build_triangulation(Foliation(times, CircleDomain(2 * np.pi)), 5)

    def test_views_match_eager_builder(self, tri):
        faces, cells = eager_mesh(tri.times, tri.breakpoints, tri.periodic)
        for view, ref in ((tri.faces, faces), (tri.cells, cells)):
            assert len(view) == len(ref)
            assert list(view) == list(ref)
            assert list(view.values()) == list(ref.values())
            assert all(key in view for key in ref)
            assert dict(view) == ref
        assert tri.n_cells == len(cells)

    def test_admissibility_flags_match_a_walk_over_the_reference_mesh(self, tri):
        # the report reads the partitions; walking every reference face and
        # cell checks the same four invariants object by object
        faces, cells = eager_mesh(tri.times, tri.breakpoints, tri.periodic)
        slice_of = {fid: fid[1] for fid, f in faces.items() if f.kind == "spacelike"}
        walked = {
            "one_inflow_one_outflow": all(
                faces[c.inflow_face].kind == faces[c.outflow_face].kind == "spacelike"
                for c in cells.values()),
            "spacelike_faces_on_slices": all(
                slice_of[c.inflow_face] == c.slab_index
                and slice_of[c.outflow_face] == c.slab_index + 1 for c in cells.values()),
            "interior_vertical_shared_by_two": all(
                len(f.neighbors) == 2
                for f in faces.values() if f.kind == "vertical" and not f.boundary),
            "inflow_is_outflow_or_initial": all(
                slice_of[c.inflow_face] == 0 or ("K", c.slab_index - 1, c.column) in cells
                for c in cells.values()),
        }
        report = tri.admissibility_report()
        assert report == {**walked, "admissible": all(walked.values())}
        assert report["admissible"] is True

    def test_numpy_and_float_ids_find_the_same_entry(self, tri):
        face = tri.faces[("S", np.int64(1), 2.0)]
        assert face == tri.faces[("S", 1, 2)]
        assert type(face.id[1]) is int and type(face.id[2]) is int

    @pytest.mark.parametrize("key", [
        ("S", 4, 0), ("S", 0, 5), ("S", -1, 0), ("V", 3, 0), ("K", 0, 5), ("K", 3, 0),
        ("S", 0.5, 0), ("S", float("nan"), 0), ("S", float("inf"), 0), ("X", 0, 0),
        ("S", 0), ("S", 0, 0, 0), ("S", "0", 0), "S00", None, 3, (["S"], 0, 0),
    ])
    def test_ids_outside_the_mesh_raise_key_error(self, tri, key):
        view = tri.cells if isinstance(key, tuple) and key[:1] == ("K",) else tri.faces
        assert key not in view
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key) is None

    def test_views_are_read_only(self, tri):
        with pytest.raises(TypeError):
            tri.faces[("S", 0, 0)] = None
        with pytest.raises(TypeError):
            del tri.cells[("K", 0, 0)]

    def test_build_stores_nothing_per_face(self):
        # a 400-slab x 200-column mesh has 241k faces and cells; storing
        # them costs tens of MiB, storing the partitions a few KiB
        times = np.linspace(0.0, 1.0, 401)
        fol = Foliation(times, IntervalDomain(0.0, 1.0))
        xs = np.linspace(0.0, 1.0, 201)
        tracemalloc.start()
        try:
            tri = build_triangulation(fol, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tri.faces) + len(tri.cells) == 401 * 200 + 400 * 201 + 400 * 200
        assert peak < 2 ** 20


class TestTotalFlux:
    def test_flat_density(self):
        table = face_table(presets.burgers_flux((-1.0, 1.0)), 0.0, 1.0)
        assert table.q(np.array([0.5]))[0] == pytest.approx(0.5)
        assert table.dq(np.array([0.3]))[0] == pytest.approx(1.0)
        assert table.dq_min[0] == pytest.approx(0.9)        # safety-factored bound
        assert table.dq_min_raw[0] == pytest.approx(1.0)    # sampled extremum

    def test_sinusoidal_density_total(self):
        flux = presets.capacity_flux(lambda x: 2.0 + np.sin(x), lambda x: np.cos(x),
                                     lambda u: 0.0 * np.asarray(u),
                                     lambda u: 0.0 * np.asarray(u), (-2.0, 2.0))
        table = face_table(flux, 0.0, np.pi, rule=gauss_legendre(20, 1))
        assert table.q(np.array([1.0]))[0] == pytest.approx(2 * np.pi + 2, rel=1e-12)

    def test_annulus_circle_not_spacelike(self):
        # the circle's total flux and its u-derivative vanish identically, so
        # no orientation makes it monotone
        flux, _, boundary = presets.annulus_example()
        face = boundary[0].face
        for ub in (-0.7, 0.0, 0.9):
            assert integrate_over_face(flux.omega.base(ub), face) == pytest.approx(0.0, abs=1e-12)
            assert integrate_over_face(flux.omega.du(ub), face) == pytest.approx(0.0, abs=1e-12)
        assert classify_face(face, boundary[0].normal, flux).kind is FaceKind.NOT_SPACELIKE


class TestInvertTotalFlux:
    def _flat_table(self, width=0.5, u_range=(-1.0, 1.0)):
        return face_table(presets.burgers_flux(u_range), 0.0, width, u_range=u_range)

    def test_linear_inverse(self):
        table = self._flat_table(width=2.0)  # q(u) = 2u
        assert table.invert(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-13)

    def test_sinusoidal_inverse(self):
        flux = presets.capacity_flux(lambda x: 2.0 + np.sin(x), lambda x: np.cos(x),
                                     lambda u: 0.0 * np.asarray(u),
                                     lambda u: 0.0 * np.asarray(u), (-2.0, 2.0))
        table = face_table(flux, 0.0, np.pi, rule=gauss_legendre(20, 1), u_range=(-2.0, 2.0))
        assert table.invert(np.array([2 * np.pi + 2]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_value_outside_image(self):
        table = self._flat_table(width=1.0, u_range=(0.0, 1.0))  # image [0, 1]
        with pytest.raises(ValueOutsideImage):
            table.invert(np.array([2.0]))

    @given(st.floats(-0.99, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_identity(self, ub):
        table = self._flat_table(width=0.7)
        assert table.invert(table.q(np.array([ub])))[0] == pytest.approx(ub, abs=1e-11)

    def test_face_ids_are_built_on_lookup(self):
        tri = interval_tri(3, 6)
        table = SpacelikeTable(tri, presets.burgers_flux((-1.0, 1.0)), 1)
        ids = table.face_ids
        assert isinstance(ids, SliceFaceIds) and len(ids) == 6
        assert list(ids) == [("S", 1, i) for i in range(6)]
        assert ids[-1] == ("S", 1, 5) and ids[np.int64(2)] == ("S", 1, 2)
        with pytest.raises(IndexError):
            ids[6]
        # a table moved to another slice names and places that slice's faces,
        # and shares the flux-derived arrays
        moved = table.on_slice(tri, 2)
        assert list(moved.face_ids) == [("S", 2, i) for i in range(6)]
        fresh = SpacelikeTable(tri, presets.burgers_flux((-1.0, 1.0)), 2)
        assert moved.t == fresh.t and moved.pts.tobytes() == fresh.pts.tobytes()
        assert moved.weights is table.weights and moved.image_hi is table.image_hi
        assert table.slice_index == 1 and np.all(table.pts[..., 0] == tri.times[1])

    @pytest.mark.parametrize("name", ["burgers", "traveling_density", "capacity"])
    def test_image_ends_and_midpoint_equal_three_calls(self, name):
        # the (m, 3) call that sets image_lo, q_mid and image_hi gives the
        # bits of one (m,) call per state, so the inversion's first iterate
        # has the q it would evaluate
        flux = {"burgers": lambda: presets.burgers_flux((-1.0, 1.0)),
                "traveling_density": lambda: presets.traveling_density_flux(
                    lambda s: 2.0 + np.sin(s), np.cos, u_range=(-1.0, 1.0)),
                "capacity": lambda: capacity_field(2.0, 0.5, 3.0, 0.2, (-1.0, 1.0))}[name]()
        tri = interval_tri(3, 7)
        table = SpacelikeTable(tri, flux, 2, u_range=(-0.7, 0.9))
        for u, q in ((-0.7, table.image_lo), (0.5 * (-0.7 + 0.9), table.q_mid),
                     (0.9, table.image_hi)):
            assert q.tobytes() == table.q(np.full(7, u)).tobytes()

    def test_vectorized_table_matches_scalar(self):
        tri = interval_tri(2, 6)
        flux = presets.burgers_flux((-1.0, 1.0))
        table = SpacelikeTable(tri, flux, 1)
        u = np.linspace(-0.8, 0.8, 6)
        targets = table.q(u)
        roots = table.invert(targets)
        np.testing.assert_allclose(roots, u, atol=1e-12)
        # each root depends only on its own target: moving every other
        # column's target leaves it unchanged, bit for bit
        moved = table.q(np.full(6, -0.35))
        for i in range(6):
            others = np.where(np.arange(6) == i, targets, moved)
            assert table.invert(others)[i].tobytes() == roots[i].tobytes()


class TestFaceQuadrature:
    def test_segment_nodes_place_gauss_points_on_each_segment(self):
        rule = gauss_legendre(3, 1)
        pts, weights = segment_nodes(rule, 1, 0.25, np.array([0.0, 0.5]), np.array([0.5, 2.0]))
        assert pts.shape == (2, 3, 2) and weights.shape == (2, 3)
        np.testing.assert_array_equal(pts[..., 0], 0.25)
        np.testing.assert_allclose(pts[1, :, 1], 0.5 + 1.5 * rule.nodes[:, 0], rtol=1e-15)
        np.testing.assert_allclose(weights.sum(axis=1), [0.5, 1.5], rtol=1e-15)
        # time segments at three nodes share one weight row
        pts, weights = segment_nodes(rule, 0, np.array([0.0, 0.3, 1.0]), 0.1, 0.2)
        assert pts.shape == (3, 3, 2) and weights.shape == (3,)
        np.testing.assert_array_equal(pts[:, :, 1], np.repeat([[0.0], [0.3], [1.0]], 3, axis=1))
        np.testing.assert_allclose(pts[0, :, 0], 0.1 + 0.1 * rule.nodes[:, 0], rtol=1e-15)

    def test_face_sums_integrates_per_state_row(self):
        pts, weights = segment_nodes(gauss_legendre(4, 1), 1, 0.0, np.array([0.0, 1.0]),
                                     np.array([1.0, 3.0]))
        fn = lambda p, u: u * p[..., 1] ** 2   # noqa: E731 - integral u (b^3 - a^3) / 3
        np.testing.assert_allclose(face_sums(fn, pts, weights, np.array([1.0, 2.0])),
                                   [1.0 / 3.0, 2.0 * 26.0 / 3.0], rtol=1e-14)
        lattice = face_sums(fn, pts, weights, np.array([[1.0, 3.0], [2.0, 0.0]]))
        np.testing.assert_allclose(lattice, [[1.0 / 3.0, 1.0], [52.0 / 3.0, 0.0]], rtol=1e-14)
        with pytest.raises(MeshError, match="state array must have shape"):
            face_sums(fn, pts, weights, np.zeros((2, 2, 2)))


def capacity_field(a0, a1, k, phase, u_range):
    """``a(x) u dx - u^2/2 dt`` with capacity ``a0 + a1 sin(k x + phase)``."""
    return presets.capacity_flux(lambda x: a0 + a1 * np.sin(k * x + phase),
                                 lambda x: a1 * k * np.cos(k * x + phase),
                                 lambda u: 0.5 * np.asarray(u) ** 2,
                                 lambda u: np.asarray(u), u_range)


class TestInversionKernel:
    """Termination of ``bracketed_root``, the one root finder behind every
    inversion (Newton steps) and critical-point polish (Illinois secant)."""

    def test_affine_q_converges_in_at_most_four_iterations(self):
        # undeclared: with dq one column per face, an iteration makes no dq call
        flux, calls = counting_flux(replace(presets.burgers_flux((-1.0, 1.0)), reads_t=True,
                                            u_free_du=frozenset()))
        tri = interval_tri(2, 12)
        table = SpacelikeTable(tri, flux, 1, u_range=(-0.9, 1.1))
        targets = table.q(np.linspace(-0.85, 1.05, 12))
        calls.clear()
        u = table.invert(targets)
        assert 1 <= len(calls[("dw", 1)]) <= 4       # one dq call per iteration
        np.testing.assert_allclose(u, np.linspace(-0.85, 1.05, 12), atol=1e-15)
        single = face_table(flux, tri.breakpoints[5], tri.breakpoints[6], u_range=(-0.9, 1.1))
        calls.clear()
        single.invert(single.q(np.array([0.7])))
        assert 1 <= len(calls[("dw", 1)]) <= 4

    def test_targets_at_image_ends_return_range_ends(self):
        u_range = (-0.7, 1.3)
        flux, calls = counting_flux(capacity_field(2.0, 0.5, 3.0, 0.2, u_range))
        tri = interval_tri(2, 6)
        table = SpacelikeTable(tri, flux, 1, u_range=u_range)
        calls.clear()
        assert np.array_equal(table.invert(table.image_lo), np.full(6, u_range[0]))
        assert np.array_equal(table.invert(table.image_hi), np.full(6, u_range[1]))
        assert not calls                              # no iteration at the ends
        mixed = np.where(np.arange(6) % 2 == 0, table.image_lo, table.image_hi)
        assert np.array_equal(table.invert(mixed),
                              np.where(np.arange(6) % 2 == 0, *u_range))
        single = face_table(flux, tri.breakpoints[3], tri.breakpoints[4], u_range=u_range)
        assert single.invert(single.image_lo)[0] == u_range[0]
        assert single.invert(single.image_hi)[0] == u_range[1]

    @given(a0=st.floats(0.5, 3.0), ratio=st.floats(-0.9, 0.9), k=st.floats(0.5, 12.0),
           phase=st.floats(0.0, 2 * np.pi),
           s=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_on_capacity_fields(self, a0, ratio, k, phase, s):
        u_range = (-0.8, 1.2)
        tol = 1e-12
        flux = capacity_field(a0, ratio * a0, k, phase, u_range)
        tri = interval_tri(2, 5)
        table = SpacelikeTable(tri, flux, 1, u_range=u_range)
        y = table.image_lo + np.asarray(s) * (table.image_hi - table.image_lo)
        u = table.invert(y, tol=tol)
        assert np.all((u >= u_range[0]) & (u <= u_range[1]))
        assert np.all(np.abs(table.q(u) - y) <= tol * np.maximum(1.0, np.abs(y)))
        for i, si in enumerate(s):
            single = face_table(flux, tri.breakpoints[i], tri.breakpoints[i + 1],
                                u_range=u_range)
            yi = single.image_lo + si * (single.image_hi - single.image_lo)
            ui = single.invert(yi, tol=tol)
            assert u_range[0] <= ui[0] <= u_range[1]
            assert abs(single.q(ui)[0] - yi[0]) <= tol * max(1.0, abs(yi[0]))

    @staticmethod
    def _invert_affine(q_of, target):
        # one face ("S", 1, 3) with q(u) = u on [0, 1] unless q_of overrides it
        return _invert_increasing(q_of, np.ones_like, np.array([target]), (0.0, 1.0),
                                  np.array([0.0]), np.array([1.0]), [("S", 1, 3)], 1e-12)

    @staticmethod
    def _invert_grid(q_of, targets):
        # four faces ("S", 1, i) with q(u) = u on [0, 1], four states per face
        return _invert_increasing(q_of, np.ones_like, targets, (0.0, 1.0), np.zeros(4),
                                  np.ones(4), SliceFaceIds(1, 4), 1e-12)

    def test_state_grid_names_the_face_row_and_state_column(self):
        targets = np.full((4, 4), 0.5)
        targets[2, 3] = 1.5
        with pytest.raises(ValueOutsideImage, match=(
                r"^face \('S', 1, 2\), state column 3: target 1\.5 outside image "
                r"\[0\.0, 1\.0\]$")):
            self._invert_grid(lambda u: u, targets)

    def test_nan_residual_in_a_later_column_names_it(self):
        # q is NaN near the first iterate 0.5 only at (row 1, column 2)
        nan_at = np.zeros((4, 4), dtype=bool)
        nan_at[1, 2] = True
        targets = np.full((4, 4), 0.3)
        with pytest.raises(ConvergenceError, match=(
                r"^face \('S', 1, 1\), state column 2: total-flux inversion of target 0\.3 "
                r"stopped at iterate u = 0\.5 with residual nan$")):
            self._invert_grid(lambda u: np.where(nan_at & (np.abs(u - 0.5) < 0.1), np.nan, u),
                              targets)

    def test_state_grid_equals_per_column_inversions_bit_for_bit(self):
        # declared and undeclared: dq one broadcast column, or summed at every state
        flux = capacity_field(2.0, 0.5, 3.0, 0.2, (-0.7, 1.3))
        s = np.random.default_rng(4).uniform(0.0, 1.0, (6, 5))
        s[:, 0], s[:, 1] = 0.0, 1.0                   # targets at both image ends
        for f in (flux, replace(flux, u_free_du=frozenset())):
            table = SpacelikeTable(interval_tri(2, 6), f, 1, u_range=(-0.7, 1.3))
            targets = table.image_lo[:, None] + s * (table.image_hi - table.image_lo)[:, None]
            grid = table.invert(targets)
            for k in range(targets.shape[1]):
                assert grid[:, k].tobytes() == table.invert(targets[:, k]).tobytes()

    def test_nan_target_is_outside_the_image(self):
        with pytest.raises(ValueOutsideImage,
                           match=r"face \('S', 1, 3\): target nan outside image \[0\.0, 1\.0\]"):
            self._invert_affine(lambda u: u, float("nan"))

    def test_nan_residual_is_a_convergence_error(self):
        # q is NaN on (0.4, 0.6), where the first midpoint lands: the
        # inversion stops at that first q call and reports the NaN residual
        with pytest.raises(ConvergenceError, match=r"target 0\.3 .* residual nan"):
            self._invert_affine(lambda u: np.where(np.abs(u - 0.5) < 0.1, np.nan, u), 0.3)

    def test_nan_residual_stops_at_the_first_q_call(self):
        # the first iterate, the midpoint 0.5, has a NaN residual: the
        # inversion names it at once instead of bisecting to the cap
        calls = []

        def q_of(u):
            calls.append(u.copy())
            return np.where(np.abs(u - 0.5) < 0.1, np.nan, u)

        with pytest.raises(ConvergenceError, match=(
                r"^face \('S', 1, 3\): total-flux inversion of target 0\.3 stopped at "
                r"iterate u = 0\.5 with residual nan$")):
            self._invert_affine(q_of, 0.3)
        assert len(calls) == 1

    def test_target_within_rounding_of_an_image_end_takes_one_q_call(self, monkeypatch):
        # in this shock, targets lie as little as 1e-323 above image_lo = 0:
        # the Newton step from the midpoint, whose q the table holds, lands
        # on the bracket end u = 0, and the secant of the bracket, taken from
        # that end, finds the root with the one q call where bisection took ~50
        counts, gaps = [], []

        def counting(q_of, dq_of, values, u_range, image_lo, *args, **kwargs):
            calls = []
            gap = values - image_lo
            gaps.append(float(np.min(gap[gap > 0.0], initial=1.0)))

            def counted_q(u):
                calls.append(1)
                return q_of(u)

            u = _invert_increasing(counted_q, dq_of, values, u_range, image_lo, *args, **kwargs)
            counts.append(len(calls))
            return u

        monkeypatch.setattr(mesh_module, "_invert_increasing", counting)
        harness.burgers_riemann_case(1.0, 0.0).run(80)
        assert min(gaps) < 1e-30                     # the straggler targets occur
        assert len(counts) > 0 and counts == [1] * len(counts)

    @given(a=st.floats(0.1, 5.0), b=st.floats(-2.0, 2.0), c=st.floats(0.0, 3.0),
           roots=st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=6),
           newton=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_known_first_value_changes_no_bit(self, a, b, c, roots, newton):
        # f(w) = a (w - r) + b (w^3 - r^3) + c (e^w - e^r) on [-1, 1], strictly
        # increasing for b >= 0 and steep a; passing fw = f(w) skips exactly
        # the first call and leaves every iterate, value and mask bit for bit
        b = abs(b)
        r = np.asarray(roots)

        def f(w):
            calls.append(1)
            return a * (w - r) + b * (w ** 3 - r ** 3) + c * (np.exp(w) - np.exp(r))

        def df(w):
            return a + 3.0 * b * w ** 2 + c * np.exp(w)

        lo, hi = np.full(r.size, -1.0), np.full(r.size, 1.0)
        calls = []
        flo, fhi, w = f(lo), f(hi), np.zeros(r.size)
        kwargs = dict(df=df if newton else None, tol=1e-13)
        calls.clear()
        plain = bracketed_root(f, w, lo, hi, flo, fhi, **kwargs)
        n_plain = len(calls)
        fw = f(w)
        calls.clear()
        known = bracketed_root(f, w, lo, hi, flo, fhi, fw=fw, **kwargs)
        assert len(calls) == n_plain - 1
        for x, y in zip(plain, known):
            assert x.tobytes() == y.tobytes()

    def test_nan_without_derivative_leaves_the_root_open(self):
        # f is NaN on (0.3, 0.7) and the secant start is the root 0.55: the
        # kernel stops at that first call instead of taking 0.3 for the root
        calls = []

        def f(w):
            calls.append(w.copy())
            return np.where(np.abs(w - 0.5) < 0.2, np.nan, w - 0.55)

        x, fx, open_ = bracketed_root(f, np.array([0.55]), np.array([0.0]), np.array([1.0]),
                                      np.array([-0.55]), np.array([0.45]))
        assert open_.tolist() == [True] and np.isnan(fx[0]) and x[0] == 0.55
        assert len(calls) == 1

    def test_bracket_around_a_jump_closes_within_the_bound(self):
        # one lattice segment of 65 states on [-1, 1] around a jump of f with
        # no root: without derivative the bracket halves at least every
        # three steps, and it closes on the jump within ROOT_MAX_STEPS
        lo, hi = np.linspace(-1.0, 1.0, 65)[41:43]
        jump = 0.3 + 1e-3 * np.sqrt(2.0)
        calls = []

        def f(w):
            calls.append(1)
            return np.where(w < jump, w - jump - 0.1, w - jump + 0.1)

        flo, fhi = f(np.array([lo])), f(np.array([hi]))
        calls.clear()
        x, _, open_ = bracketed_root(f, lo - flo * (hi - lo) / (fhi - flo), np.array([lo]),
                                     np.array([hi]), flo, fhi)
        assert not open_.any()
        assert len(calls) <= ROOT_MAX_STEPS
        assert abs(x[0] - jump) <= 2 * ROOT_STEP_TOL * (1.0 + jump)

    def test_wrong_derivative_raises_convergence_error(self):
        # dq a million times too large: every Newton step stays inside the
        # bracket but barely moves, so the cap is reached above tolerance
        base = presets.burgers_flux((0.0, 1.0))
        omega = base.omega
        du = dict(omega.du_coeffs)
        du[(1,)] = lambda pts, u: np.full(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(u)),
                                          1e6)
        flux = FluxField(omega=ParamForm(omega.degree, omega.chart_dim, omega.coeffs, du,
                                         omega.u_range, partials=omega.partials),
                         domain=base.domain, name="wrong_dq")
        tri = interval_tri(2, 4)
        table = SpacelikeTable(tri, flux, 1, u_range=(0.0, 1.0))
        targets = table.q(np.array([0.1, 0.5, 0.6, 0.7]))
        with pytest.raises(ConvergenceError,
                           match=r"face \('S', 1, 0\).*target 0\.025.*residual") as info:
            table.invert(targets)
        assert not isinstance(info.value, ValueError)
        single = face_table(flux, tri.breakpoints[2], tri.breakpoints[3], u_range=(0.0, 1.0))
        with pytest.raises(ConvergenceError, match=r"face \('S', 1, 0\).*target 0\.025"):
            single.invert(targets[:1])


class TestConservationTopology:
    @pytest.mark.parametrize("make_flux", [
        lambda: presets.burgers_flux((-1.0, 1.0)),
        lambda: presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                               lambda s: np.cos(s)),
    ])
    def test_stokes_sum_vanishes_per_cell(self, make_flux):
        # closed flux: summing oriented constant-state total fluxes over a
        # cell boundary telescopes to zero
        flux = make_flux()
        fol = Foliation(np.array([0.0, 0.125, 0.25]), IntervalDomain(0.0, 2.0))
        tri = build_triangulation(fol, 5)
        rule = gauss_legendre(5, 1)
        c = 0.7
        for cell in (tri.cells[("K", 1, i)] for i in range(tri.n_columns)):
            t0, t1 = cell.t_lo, cell.t_hi
            s = rule.nodes[:, 0]
            # outflow minus inflow with the increasing-x orientation
            out_pts = np.stack([np.full_like(s, t1),
                                cell.x_lo + s * (cell.x_hi - cell.x_lo)], axis=-1)
            in_pts = np.stack([np.full_like(s, t0),
                               cell.x_lo + s * (cell.x_hi - cell.x_lo)], axis=-1)
            w = rule.weights * (cell.x_hi - cell.x_lo)
            total = np.sum(w * flux.omega.coeffs[(1,)](out_pts, c)) \
                - np.sum(w * flux.omega.coeffs[(1,)](in_pts, c))
            # vertical contributions as the cell's boundary sees them
            tv = t0 + s * (t1 - t0)
            wv = rule.weights * (t1 - t0)
            right = np.stack([tv, np.full_like(tv, cell.x_hi)], axis=-1)
            left = np.stack([tv, np.full_like(tv, cell.x_lo)], axis=-1)
            total -= np.sum(wv * flux.omega.coeffs[(0,)](right, c))
            total += np.sum(wv * flux.omega.coeffs[(0,)](left, c))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_interior_face_oriented_quadratures_cancel(self):
        # the two owning cells orient a shared vertical face oppositely, so
        # their oriented integrals of any fixed form are exact negatives;
        # cross-check the solver's left-cell flux against the generic
        # pullback machinery on both orientations
        from spacetime_fvm.forms import integrate_over_face
        from spacetime_fvm.scheme import NumericalFluxSpec, VerticalFluxes
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        fol = Foliation(np.array([0.0, 0.25]), IntervalDomain(0.0, 2.0))
        tri = build_triangulation(fol, 4)
        vert = VerticalFluxes(tri.breakpoints, 0.0, 0.25, flux,
                              NumericalFluxSpec(), gauss_legendre(5, 1), (-1.0, 1.0))
        ub = 0.6
        face = tri.faces[("V", 0, 2)]
        frozen = flux.omega.base(ub)
        # right face of the left cell: oriented along decreasing time
        as_left_cell = integrate_over_face(frozen, face.chart().flipped())
        as_right_cell = integrate_over_face(frozen, face.chart())
        assert as_left_cell == pytest.approx(-as_right_cell, rel=1e-12)
        g = vert.G(np.full(vert.n_faces, ub))
        assert g[2] == pytest.approx(as_left_cell, rel=1e-10)


class TestRegularityReport:
    def test_flat_flux_unit_ratio(self):
        tri = interval_tri(4, 8)
        flux = presets.burgers_flux((-1.0, 1.0))
        rep = mesh_regularity_report(tri, flux)
        assert rep.q_derivative_ratio_max == pytest.approx(1.0)
        assert rep.max_vertical_faces_per_cell == 2
        assert rep.dq_over_h_min == pytest.approx(1.0)
        assert rep.dq_over_h_max == pytest.approx(1.0)

    def test_sinusoidal_density_ratio_bound(self):
        flux = presets.capacity_flux(lambda x: 2.0 + np.sin(x), lambda x: np.cos(x),
                                     lambda u: 0.0 * np.asarray(u),
                                     lambda u: 0.0 * np.asarray(u), (-1.0, 1.0))
        fol = Foliation(np.linspace(0, 0.5, 5), IntervalDomain(0.0, 2 * np.pi))
        tri = build_triangulation(fol, 16)
        rep = mesh_regularity_report(tri, flux)
        assert rep.q_derivative_ratio_max <= 3.0 + 1e-9

    def test_compact_region_counts(self):
        tri = interval_tri(5, 10, t_final=1.0)
        flux = presets.burgers_flux((-1.0, 1.0))
        rep = mesh_regularity_report(tri, flux, compact_region=(0.0, 0.45, 0.0, 0.35))
        assert rep.cells_per_slab_in_region_max == 4   # cells overlapping x < 0.35
        assert rep.slabs_in_region == 3                # slabs overlapping t < 0.45

    def test_translation_sum_second_order(self):
        # product meshes translate cells in time: the averaged-vs-pointwise
        # mismatch sum shrinks like h^2 under joint refinement
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        psi = _smooth_psi()
        sums = []
        for n in (8, 16, 32):
            fol = Foliation(np.linspace(0.0, 0.5, n + 1), IntervalDomain(0.0, 2 * np.pi))
            tri = build_triangulation(fol, n)
            rep = mesh_regularity_report(tri, flux, psi=psi)
            sums.append(rep.slab_translation_sum_max)
        assert sums[0] > sums[1] > sums[2]
        rate = np.log2(sums[0] / sums[1])
        assert rate > 1.5
        rate2 = np.log2(sums[1] / sums[2])
        assert rate2 > 1.5

    @pytest.mark.parametrize("periodic", [False, True])
    def test_builds_no_face_or_cell_objects(self, periodic, monkeypatch):
        def refuse(self, tag, a, b):
            raise AssertionError(f"built the mesh object {(tag, a, b)}")

        monkeypatch.setattr(Triangulation, "_face", refuse)
        monkeypatch.setattr(Triangulation, "_cell", refuse)
        tri = _report_tri(periodic)
        rep = mesh_regularity_report(tri, _traveling(), compact_region=(0.0, 0.2, 1.0, 3.0),
                                     psi=_smooth_psi())
        assert rep.slab_translation_sum_max > 0.0
        assert rep.cells_per_slab_in_region_max == 3

    @pytest.mark.parametrize("periodic", [False, True])
    def test_oscillation_and_translation_sum_equal_the_generic_layer(self, periodic):
        # recomputed face by face through the generic pullback and face
        # integrals, on every vertical face and every slab of a small mesh
        flux, psi = _traveling(), _smooth_psi()
        tri = _report_tri(periodic)
        rep = mesh_regularity_report(tri, flux, psi=psi)
        us = flux.u_samples(9)

        unit = np.linspace(0.0, 1.0, 33)[:, None]
        oscillation = 0.0
        for j in range(tri.n_slabs):
            for k in range(tri.n_nodes):
                chart = tri.faces[("V", j, k)].chart()
                nodes = chart.ref_points(unit)
                for ub in us:
                    phi = pullback(flux.omega.base(ub), chart).evaluate((0,), nodes)
                    phi = phi / max(1.0, float(np.max(np.abs(phi))))
                    oscillation = max(oscillation, float(np.mean(np.abs(phi - np.mean(phi)))))
        assert rep.curvature_oscillation_max == pytest.approx(oscillation, rel=1e-12)

        def face_mean(j, k):
            chart = tri.faces[("V", j, k)].chart()
            return (integrate_over_face(CoordinateForm(1, 2, {(0,): psi}), chart)
                    / integrate_over_face(CoordinateForm(1, 2, {(0,): 1.0}), chart))

        def cell_mean(j, i):
            right = (i + 1) % tri.n_columns if periodic else i + 1
            return 0.5 * face_mean(j, i) + 0.5 * face_mean(j, right)

        def weighted_flux(slice_index, i, mean, ub):
            # oriented by the positive density: +1 along increasing x
            form = CoordinateForm(1, 2, {(1,): lambda p: (mean - psi(p))
                                         * flux.omega.coeffs[(1,)](p, ub)})
            return integrate_over_face(form, tri.faces[("S", slice_index, i)].chart())

        sums = []
        for j in range(1, tri.n_slabs):
            per_state = np.zeros(len(us))
            for i in range(tri.n_columns):
                below, here = cell_mean(j - 1, i), cell_mean(j, i)
                for n, ub in enumerate(us):
                    per_state[n] += abs(weighted_flux(j, i, below, ub)
                                        - weighted_flux(j + 1, i, here, ub))
            sums.append(float(np.max(per_state)))
        assert rep.slab_translation_sum_max == pytest.approx(max(sums), rel=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_boundary_mass_and_cell_diameter(self, periodic):
        tri = _report_tri(periodic)
        rep = mesh_regularity_report(tri, _traveling())
        heights, widths = np.diff(tri.times), np.diff(tri.breakpoints)
        # the coordinate measure of a boundary face is the slab height
        expected_mass = 0.0 if periodic else pytest.approx(heights.max() / widths.max(),
                                                           rel=1e-15)
        assert rep.boundary_alpha_mass_over_h_max == expected_mass
        assert rep.max_cell_diameter == pytest.approx(np.hypot(heights.max(), widths.max()),
                                                      rel=1e-15)

    def test_curvature_oscillation_small_on_products(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        tri = interval_tri(4, 8)
        rep = mesh_regularity_report(tri, flux)
        # flat vertical faces with constant densities: no oscillation
        assert rep.curvature_oscillation_max == pytest.approx(0.0, abs=1e-12)


def _traveling():
    return presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))


def _report_tri(periodic):
    """Three slabs of unequal heights over six unequal columns of [0, 2 pi]."""
    domain = CircleDomain(2 * np.pi) if periodic else IntervalDomain(0.0, 2 * np.pi)
    xs = 2 * np.pi * np.array([0.0, 0.1, 0.3, 0.45, 0.6, 0.85, 1.0])
    return build_triangulation(Foliation(np.array([0.0, 0.1, 0.25, 0.32]), domain), xs)


def _smooth_psi():
    def fn(p):
        return np.sin(np.pi * p[..., 0]) ** 2 * (1.5 + np.cos(p[..., 1]))
    return fn


class TestUniformHelpers:
    def test_uniform_times_cover_horizon(self):
        times = uniform_times(1.0, 0.3)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0)
        assert np.max(np.diff(times)) <= 0.3 + 1e-12

    def test_zero_horizon(self):
        assert uniform_times(0.0, 0.1).tolist() == [0.0]
