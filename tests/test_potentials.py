import math

import numpy as np
import pytest

import calorix as cx
from calorix import potentials
from calorix.errors import (
    CornerTooClose,
    DegenerateData,
    DimensionMismatch,
    DimensionTooSmall,
    OffsetTooLarge,
    TargetOnBoundary,
)
from calorix.quadrature import (
    composite_gauss,
    graded_edges_toward,
    sphere_rule,
    unit_sphere_area,
)

from conftest import (
    exterior_probes,
    interior_probes,
    on_circle,
    shell_kernel_bound,
    unit_density,
)


def partition(mesh, A, target):
    """Partition of unity at one target: the layer representation of u = 1."""
    return cx.representation_values(mesh, A, [cx.ConstantField()])(target)[0]


def discrepancy(mesh, A, field, target, which="H"):
    """How far the layer representation of one caloric field is from the
    field at one target."""
    (value,) = cx.representation_values(mesh, A, [field], which)(target)
    return cx.representation_discrepancy(field, target, value, mesh.locate(target).kind)


def smooth_density(mesh):
    def gen(p, t, nu):
        th = np.arctan2(p[:, 1], p[:, 0])
        return (1.0 + 0.5 * np.cos(th) - 0.3 * np.sin(2.0 * th)) * (1.0 + t)
    return cx.DensityField.from_function(mesh, "sigma3", gen)


# -- partition of unity -----------------------------------------------------

@pytest.mark.parametrize("fix", ["disk_mesh_I", "disk_mesh_B",
                                 "ellipse_mesh_I", "ellipse_mesh_B"])
def test_partition_identity(fix, request):
    mesh = request.getfixturevalue(fix)
    A = mesh.A
    rng = np.random.default_rng(42)
    for x in interior_probes(mesh.cs, rng, 6):
        t = rng.uniform(0.1, 0.9)
        assert abs(partition(mesh, A, (x, t)) - 1.0) < 1e-6
    for x in exterior_probes(mesh.cs, rng, 6):
        t = rng.uniform(0.1, 0.9)
        assert abs(partition(mesh, A, (x, t))) < 1e-6


def test_partition_rejects_boundary_target(disk_mesh_I, I2):
    with pytest.raises(TargetOnBoundary):
        partition(disk_mesh_I, I2, (np.array([1.0, 0.0]), 0.5))


# -- lateral operator basics ------------------------------------------------

def test_layers_linear_in_density(disk_mesh_B, B2):
    phi = smooth_density(disk_mesh_B)
    phi2 = cx.DensityField(phi.region, 2.0 * phi.values,
                           lambda p, t, nu: 2.0 * phi.generator(p, t, nu))
    target = (np.array([0.3, 0.2]), 0.6)
    for op in (cx.double_layer, cx.single_layer, cx.double_layer_star,
               cx.single_layer_star):
        assert op(disk_mesh_B, B2, phi2, target) == pytest.approx(
            2.0 * op(disk_mesh_B, B2, phi, target), rel=1e-12)


def test_forward_layer_vanishes_at_time_zero(disk_mesh_I, I2):
    phi = smooth_density(disk_mesh_I)
    assert cx.single_layer(disk_mesh_I, I2,
                           phi, (np.array([0.3, 0.2]), 0.0)) == 0.0


def test_star_layer_vanishes_at_final_time(disk_mesh_I, I2):
    phi = smooth_density(disk_mesh_I)
    target = (np.array([0.3, 0.2]), disk_mesh_I.T)
    assert cx.single_layer_star(disk_mesh_I, I2, phi, target) == 0.0


def test_lateral_needs_wall_density(disk_mesh_I, I2):
    cap = unit_density(disk_mesh_I, "sigma2")
    with pytest.raises(DimensionMismatch):
        cx.double_layer(disk_mesh_I, I2, cap,
                        (np.array([0.1, 0.1]), 0.5))


def test_sampled_matches_generator(ellipse_mesh_B, B2):
    phi = smooth_density(ellipse_mesh_B)
    vals = phi.generator(ellipse_mesh_B.lateral_points(),
                         ellipse_mesh_B.lateral_times(), None)
    sampled = cx.DensityField.from_values(ellipse_mesh_B, "sigma3", vals)
    rng = np.random.default_rng(9)
    for x in interior_probes(ellipse_mesh_B.cs, rng, 4):
        t = rng.uniform(0.1, 0.95)
        for op in (cx.double_layer, cx.single_layer, cx.double_layer_star):
            a = op(ellipse_mesh_B, B2, phi, (x, t))
            b = op(ellipse_mesh_B, B2, sampled, (x, t))
            assert b == pytest.approx(a, rel=1e-11, abs=1e-13)


def test_sampled_density_near_the_wall_raises(disk_mesh_B, B2):
    # every lateral operator reaches a target by one path: near the wall it
    # takes the graded rule, which a density without a generator cannot
    # feed, so it raises instead of falling back to the mesh rule
    mesh = disk_mesh_B

    def gen(p, t, nu):
        return (1.0 + 0.3 * p[:, 0]) * (1.0 + 0.2 * t * t)

    phi = cx.DensityField.from_function(mesh, "sigma3", gen)
    sampled = cx.DensityField.from_values(mesh, "sigma3", phi.values)
    d = np.array([math.cos(0.3), math.sin(0.3)])
    for op in (cx.double_layer, cx.single_layer, cx.double_layer_star,
               cx.single_layer_star):
        for r in (0.99, 1.005):
            with pytest.raises(ValueError, match="generator"):
                op(mesh, B2, sampled, (r * d, 0.5))
            assert math.isfinite(op(mesh, B2, phi, (r * d, 0.5)))
    K = mesh.tnodes.shape[0]
    node = 5 * K + K // 2
    for h in (0.02, -0.02):
        with pytest.raises(ValueError, match="generator"):
            cx.conormal_derivative_single_layer(mesh, B2, sampled, node, h)
    # far from the wall both take the mesh rule on the same nodal samples
    assert (cx.conormal_derivative_single_layer(mesh, B2, sampled, node, 0.5)
            == cx.conormal_derivative_single_layer(mesh, B2, phi, node, 0.5))


def test_lateral_layers_converge_under_time_refinement(disk, B2):
    # every lateral density is interpolated in time from its samples at
    # mesh.tnodes; doubling m_time must leave all four layers unchanged to
    # roundoff, on the mesh rule (r = 0.5, 1.5) and on graded rules
    # (r = 0.97, 1.03)
    meshes = [cx.build_mesh(disk, B2, 1.0, 96, m_time, 24) for m_time in (48, 96)]
    exp_field = cx.CaloricExponentialField(B2, np.array([0.4, -0.3]))
    kernel = cx.TranslatedKernelField(B2, np.array([2.4, 1.0]), -0.3)

    def quadratic(p, t, nu):
        th = np.arctan2(p[:, 1], p[:, 0])
        return (1.0 + 0.5 * np.cos(th)) * (1.0 - 0.7 * t + 1.3 * t * t)

    densities = [
        quadratic,
        lambda p, t, nu: exp_field.value(p, t),
        lambda p, t, nu: kernel.value(p, t),
        lambda p, t, nu: kernel.conormal(p, t, nu),
    ]
    ops = (cx.double_layer, cx.single_layer, cx.double_layer_star, cx.single_layer_star)
    targets = [(r * np.array([math.cos(a), math.sin(a)]), 0.55)
               for r in (0.5, 0.97, 1.03, 1.5) for a in (0.4, 2.2, 4.0)]

    def layers(mesh, fn):
        phi = cx.DensityField.from_function(mesh, "sigma3", fn)
        return np.array([op(mesh, B2, phi, x) for x in targets for op in ops])

    for fn in densities:
        coarse, fine = (layers(mesh, fn) for mesh in meshes)
        assert np.max(np.abs(fine - coarse)) <= 1e-13 * np.max(np.abs(coarse))


def test_barycentric_matrix_matches_the_uncached_weights(disk_mesh_I):
    # the weights of mesh.tnodes are computed once per node set; every
    # matrix, exact node hits included, must equal the per-call formula bit
    # for bit
    nodes = disk_mesh_I.tnodes

    def uncached(times):
        d = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(d, 1.0)
        logs = np.sum(np.log(np.abs(d)), axis=1)
        w = np.prod(np.sign(d), axis=1) * np.exp(-(logs - logs.min()))
        diff = times[:, None] - nodes[None, :]
        hit_rows, hit_cols = np.nonzero(diff == 0.0)
        diff[hit_rows, hit_cols] = 1.0
        m = w[None, :] / diff
        m /= m.sum(axis=1, keepdims=True)
        m[hit_rows, :] = 0.0
        m[hit_rows, hit_cols] = 1.0
        return m

    rng = np.random.default_rng(8)
    times = np.concatenate([rng.uniform(0.0, disk_mesh_I.T, 40), nodes[[0, 17, -1]]])
    for _ in range(2):  # the second call reads the cached weights
        got = potentials._barycentric_matrix(nodes, times)
        assert np.array_equal(got, uncached(times))
    assert np.array_equal(got[-3:][:, [0, 17, nodes.size - 1]], np.eye(3))
    weights = potentials._barycentric_weights(nodes.tobytes())
    assert weights is potentials._barycentric_weights(nodes.copy().tobytes())
    assert not weights.flags.writeable


def _unsplit_apply(kernel, kind, samples, nu_fixed):
    """The lateral sum with the kernel profile exp((p-1) v - u0 e^v) built
    in one piece, as before the decay profile was shared."""
    grid = kernel.grid
    p = potentials._kernel_exponent(kind, kernel.x.size)
    profile = np.exp((p - 1.0) * grid.vnodes[None, :]
                     - kernel.u0[:, None] * np.exp(grid.vnodes)[None, :])
    inner = kernel.tau_hi ** (1.0 - p) * (profile * (samples @ grid.interp)) @ grid.vw
    geom = potentials._geometry_factor(kind, kernel.x[None, :] - kernel.points, kernel.normals,
                                       nu_fixed)
    return float(grid.pref * np.sum(kernel.weights * geom * inner))


@pytest.mark.parametrize("fix, mat", [("disk_mesh_B", "B2"), ("ellipse_mesh_B", "B2"),
                                      ("ball_mesh", "I3")])
@pytest.mark.parametrize("star", [False, True])
def test_split_profile_matches_the_unsplit_kernel(fix, mat, star, request):
    # one decay profile per target, contracted with each kind's v-weights,
    # e^((p-1) v) and the barycentric matrix into the kernel at the rule's
    # points x tnodes, then one dot product with the density's samples:
    # radial fractions 0.5 and 1.5 take the mesh rule, 0.97 and 1.03 the
    # graded rule on n = 2 meshes
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    n = A.n
    phi = cx.DensityField.from_function(
        mesh, "sigma3", lambda p, t, nu: (1.0 + 0.5 * p[:, 0] - 0.3 * p[:, 1] ** 2) * (1.0 + t))
    d = np.array([0.6, 0.8, 0.5][:n])
    d /= np.linalg.norm(d)
    rim = float(mesh.cs.radius(d[None, :])[0]) * d
    nu_fixed = mesh.bnormals[3]
    graded_seen = 0
    for frac, t in ((0.5, 0.3), (0.97, 0.45), (1.03, 0.6), (1.5, 0.75)):
        x = frac * rim
        kernel, graded = potentials._target_kernel(mesh, A, x, t, star,
                                                   potentials._plan(mesh, A, x, t, star))
        graded_seen += graded is not None
        samples = potentials._samples(mesh, phi, graded)
        assert not kernel.dead
        for kind in ("double", "single", "conormal_fixed"):
            got = kernel.contract(kind, [samples], nu_fixed)[0]
            want = _unsplit_apply(kernel, kind, samples, nu_fixed)
            assert abs(got - want) <= 1e-13 * abs(want)
    assert graded_seen == (2 if n == 2 else 0)


def test_graded_rule_build_takes_one_frame(disk_mesh_I, ellipse_mesh_B, monkeypatch):
    # the rule is graded toward the polar angle of its centre: one
    # surface_frame call, on the rule's own directions, and no search
    calls = []
    frame = cx.CrossSection.surface_frame

    def counted(self, dirs):
        calls.append(np.array(dirs))
        return frame(self, dirs)

    monkeypatch.setattr(cx.CrossSection, "surface_frame", counted)
    for mesh in (disk_mesh_I, ellipse_mesh_B):
        for x in (np.array([0.97, 0.1]), np.array([-0.3, 1.02])):
            x = x * mesh.cs.radius_extremes()[1]
            calls.clear()
            points, _, _ = potentials._near_boundary_rule(mesh, x, 12)
            nodes, _ = composite_gauss(graded_edges_toward(math.atan2(x[1], x[0]), math.pi, 12),
                                       max(8, mesh.m_angular // 12))
            assert len(calls) == 1 and np.array_equal(calls[0], on_circle(nodes))
            assert points.shape == (nodes.size, 2)


# largest |graded - refined| per kind (double, conormal, single) over the
# targets below: twice that of the rule centred on the nearest wall point
# (found by three Halley steps) that polar centring replaced, on those targets
_NEAR_WALL_BOUNDS = {"ellipse_mesh_B": (1.1e-8, 1.8e-7, 7.7e-8), "star": (4.5e-6, 6.8e-5, 2.7e-5)}


@pytest.mark.parametrize("fix", ["ellipse_mesh_B", "star"])
def test_near_wall_rule_matches_the_refined_rule(fix, B2, request):
    # targets on both sides of 40 wall points, the k-th at the k-th of six
    # distances from 1e-6 to 0.08 in turn, on the graded rule centred on
    # their polar angle, against the same rule with depth + 8 and 4x the
    # points per panel
    mesh = _star_mesh(B2) if fix == "star" else request.getfixturevalue(fix)

    def gen(p, t, nu):
        return (1.0 + 0.4 * p[:, 0] / np.hypot(p[:, 0], p[:, 1]) + 0.2 * p[:, 1]) * (1.0 + 0.3 * t)

    phi, t = cx.DensityField.from_function(mesh, "sigma3", gen), 0.5
    per = 4 * max(8, mesh.m_angular // 12)
    feet, _, inward = mesh.cs.surface_frame(on_circle(2.0 * math.pi * np.arange(40) / 40))
    distances = np.resize([1e-6, 1e-4, 1e-3, 1e-2, 0.03, 0.08], 40)
    worst = np.zeros(3)
    for foot, nu, d in zip(feet, inward, distances):
        for x in (foot + d * nu, foot - d * nu):
            plan = potentials._plan(mesh, B2, x, t, False)
            assert plan.depth is not None
            kernel, graded = potentials._target_kernel(mesh, B2, x, t, False, plan)
            depth = plan.depth + 8
            nodes, w = composite_gauss(
                graded_edges_toward(math.atan2(x[1], x[0]), math.pi, depth), per)
            bp, jac, normals = mesh.cs.surface_frame(on_circle(nodes))
            refined = potentials._LateralKernel(mesh, B2, x, t, False, (bp, w * jac, normals))
            refined.on(potentials._TimeGrid(mesh, B2, t, False, refined.u0min))
            ref_samples = potentials._samples(mesh, phi, (bp, w * jac, normals))
            got = [kernel.contract(kind, [potentials._samples(mesh, phi, graded)], nu)[0]
                   for kind in ("double", "conormal_fixed", "single")]
            want = [refined.contract(kind, [ref_samples], nu)[0]
                    for kind in ("double", "conormal_fixed", "single")]
            worst = np.maximum(worst, np.abs(np.subtract(got, want)))
    assert np.all(worst <= _NEAR_WALL_BOUNDS[fix]), worst


# -- adjoint operators are time reflections ---------------------------------

def test_star_operators_match_time_reflection(ellipse_mesh_B, B2):
    mesh, T = ellipse_mesh_B, ellipse_mesh_B.T

    def gen(p, t, nu):
        th = np.arctan2(p[:, 1], p[:, 0] / 2.0)
        return np.cos(th) * np.exp(-t)

    def gen_reflected(p, t, nu):
        return gen(p, T - t, nu)

    phi = cx.DensityField.from_function(mesh, "sigma3", gen)
    phir = cx.DensityField.from_function(mesh, "sigma3", gen_reflected)
    rng = np.random.default_rng(5)
    worst = 0.0
    for x in interior_probes(mesh.cs, rng, 8):
        t = rng.uniform(0.05, 0.95)
        for star_op, op in ((cx.single_layer_star, cx.single_layer),
                            (cx.double_layer_star, cx.double_layer)):
            a = star_op(mesh, B2, phi, (x, t))
            b = op(mesh, B2, phir, (x, T - t))
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    assert worst < 1e-10


# -- jump relations ---------------------------------------------------------

@pytest.mark.parametrize("index", ["negative", "too-large", "fractional"])
def test_lateral_entry_points_reject_a_bad_node_index(disk_mesh_I, I2, index):
    # each bad index once maps to a node with a mid-cylinder time: a
    # negative one wrapped round, a fractional one was truncated
    K = disk_mesh_I.tnodes.shape[0]
    node = {"negative": -(K // 2), "too-large": disk_mesh_I.n_lateral + K // 2,
            "fractional": 7 * K + K // 2 + 0.5}[index]
    ones = unit_density(disk_mesh_I, "sigma3")
    for call in (lambda: cx.jump_probe(disk_mesh_I, I2, ones, node),
                 lambda: cx.conormal_derivative_single_layer(disk_mesh_I, I2, ones, node, 0.01),
                 lambda: disk_mesh_I.offset_point(node, 0.01)):
        with pytest.raises(ValueError, match=f"lateral index {node!r} .*{disk_mesh_I.n_lateral}"):
            call()


def test_jump_of_constant_density(disk_mesh_I, I2):
    ones = unit_density(disk_mesh_I, "sigma3")
    K = disk_mesh_I.tnodes.shape[0]
    node = 7 * K + K // 2
    dbl = cx.jump_probe(disk_mesh_I, I2, ones, node, "double")
    assert dbl.predicted_jump == 1.0
    assert dbl.relative_error < 1e-8
    con = cx.jump_probe(disk_mesh_I, I2, ones, node, "conormal_single")
    assert con.predicted_jump == -1.0
    assert con.relative_error < 1e-8


def test_jump_of_smooth_density(ellipse_mesh_B, B2):
    phi = smooth_density(ellipse_mesh_B)
    K = ellipse_mesh_B.tnodes.shape[0]
    node = 31 * K + K // 3
    for kind in ("double", "conormal_single"):
        rep = cx.jump_probe(ellipse_mesh_B, B2, phi, node, kind)
        assert rep.relative_error < 1e-2
        # two-sided limits bracket a genuine discontinuity
        assert rep.jump_estimate * rep.predicted_jump > 0.0


def test_jump_error_shrinks_under_probe_refinement(disk_mesh_I, I2):
    def gen(p, t, nu):
        th = np.arctan2(p[:, 1], p[:, 0])
        return np.cos(th) * t * (1.0 - t) + 1.0

    mesh = disk_mesh_I
    phi = cx.DensityField.from_function(mesh, "sigma3", gen)
    K = mesh.tnodes.shape[0]
    node = (mesh.n_boundary // 3) * K + K // 2
    rep = cx.jump_probe(mesh, I2, phi, node, "double")
    # raw two-sided differences converge first order in the offset, so each
    # halving of h halves the error; extrapolation then beats the last rung
    raw = np.abs((rep.interior_values - rep.exterior_values)
                 - rep.predicted_jump)
    assert all(b < a for a, b in zip(raw, raw[1:]))
    assert rep.error < 1e-2 * raw[-1]


@pytest.mark.parametrize("kind", ["double", "conormal_single", ("double", "conormal_single")],
                         ids=["double", "conormal_single", "both"])
def test_jump_probe_samples_the_generator_once(disk_mesh_I, I2, kind):
    # one call samples the graded rule on its points x tnodes, shared by all
    # 8 offsets and every kind, and one gives the density at the node
    base = smooth_density(disk_mesh_I)
    calls = []

    def counted(p, t, nu):
        calls.append(p.shape[0])
        return base.generator(p, t, nu)

    phi = cx.DensityField("sigma3", base.values, counted)
    K = disk_mesh_I.tnodes.shape[0]
    cx.jump_probe(disk_mesh_I, I2, phi, 11 * K + K // 2, kind)
    assert len(calls) == 2


def _star_mesh(A):
    return cx.build_mesh(cx.CrossSection.star(1.0, (0.0, 0.0, 0.25)), A, 1.0, 96, 48, 24)


@pytest.mark.parametrize("fix, mat", [("disk_mesh_I", "I2"), ("disk_mesh_B", "B2"),
                                      ("ellipse_mesh_B", "B2"), ("star", "B2")])
def test_jump_ladder_matches_per_offset_kernels(fix, mat, request):
    # the ladder lays one time grid out for the smallest u0 of its 8
    # offsets and sums density first; each value must agree with the
    # per-target contraction of a kernel built for that offset alone, on
    # its own grid and the same graded rule
    A = request.getfixturevalue(mat)
    mesh = _star_mesh(A) if fix == "star" else request.getfixturevalue(fix)
    phi = smooth_density(mesh)
    K = mesh.tnodes.shape[0]
    b, k = mesh.n_boundary // 5, K // 2
    node, t0, nu = b * K + k, float(mesh.tnodes[k]), mesh.bnormals[b]
    kinds = ("double", "conormal_single")
    reports = cx.jump_probe(mesh, A, phi, node, kinds)
    assert [r.kind for r in reports] == list(kinds)
    offsets = reports[0].offsets
    graded = potentials._near_boundary_rule(
        mesh, mesh.bpoints[b], potentials._graded_depth(mesh.cs, offsets[-1]))
    samples = potentials._samples(mesh, phi, graded)
    worst = 0.0
    for sign, side in ((1.0, "interior_values"), (-1.0, "exterior_values")):
        for i, h in enumerate(offsets):
            x = mesh.offset_point(node, sign * h)[0]
            kernel = potentials._LateralKernel(mesh, A, x, t0, False, graded)
            grid = potentials._TimeGrid(mesh, A, t0, False, kernel.u0min)
            kernel.on(grid)
            for rep, lateral in zip(reports, ("double", "conormal_fixed")):
                want = kernel.contract(lateral, [samples], nu)[0]
                worst = max(worst, abs(getattr(rep, side)[i] - want) / abs(want))
    assert worst <= 1e-13
    # one kind at a time takes the same ladder, so the same floats
    for rep, kind in zip(reports, kinds):
        single = cx.jump_probe(mesh, A, phi, node, kind)
        assert np.array_equal(single.interior_values, rep.interior_values)
        assert np.array_equal(single.exterior_values, rep.exterior_values)
        assert single.jump_estimate == rep.jump_estimate


@pytest.mark.parametrize("fix, mat", [("disk_mesh_I", "I2"), ("disk_mesh_B", "B2"),
                                      ("ellipse_mesh_B", "B2"), ("star", "B2")])
def test_jump_ladder_is_the_inner_four_of_eighteen_offsets(fix, mat, request):
    # the ladder once placed 18 offsets, h0 2^-k for k = 0..8 on each side,
    # on one grid for the smallest u0 of all 18, and extrapolated only the
    # innermost 4 a side; the 8 it places now give those floats exactly
    A = request.getfixturevalue(mat)
    mesh = _star_mesh(A) if fix == "star" else request.getfixturevalue(fix)
    phi = smooth_density(mesh)
    K = mesh.tnodes.shape[0]
    b, k = mesh.n_boundary // 5, K // 2
    node, t0, nu = b * K + k, float(mesh.tnodes[k]), mesh.bnormals[b]
    offsets = potentials._JUMP_H0_FACTOR * mesh.diameter * 0.5 ** np.arange(9)
    graded = potentials._near_boundary_rule(
        mesh, mesh.bpoints[b], potentials._graded_depth(mesh.cs, offsets[-1]))
    kernels = [potentials._LateralKernel(mesh, A, mesh.offset_point(node, h)[0], t0, False, graded)
               for h in np.concatenate([offsets, -offsets])]
    grid = potentials._TimeGrid(mesh, A, t0, False, min(kernel.u0min for kernel in kernels))
    on_grid = potentials._samples(mesh, phi, graded) @ grid.interp
    buffer = np.empty(on_grid.size)
    kinds = ("double", "conormal_single")
    full = np.array([kernel.on(grid, buffer).apply(("double", "conormal_fixed"), on_grid, nu)
                     for kernel in kernels]).T
    for rep, values in zip(cx.jump_probe(mesh, A, phi, node, kinds), full):
        inner, outer = values[5:9], values[14:18]
        assert np.array_equal(rep.offsets, offsets[5:])
        assert np.array_equal(rep.interior_values, inner)
        assert np.array_equal(rep.exterior_values, outer)
        li, le = potentials.richardson(inner), potentials.richardson(outer)
        assert (rep.interior_limit, rep.exterior_limit, rep.jump_estimate) == (li, le, li - le)


def test_jump_ladder_builds_one_rule_and_one_grid(disk_mesh_B, B2, monkeypatch):
    # both kinds at one node: one graded rule, one barycentric matrix, one
    # decay profile per offset and two generator calls; the offsets are
    # classified by their radial gap, so no wall node is scanned
    calls = {"rule": 0, "barycentric": 0, "profile": 0, "generator": 0, "distance": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def profiled(kernel, grid, buffer=None):
        out = on(kernel, grid, buffer)
        calls["profile"] += not out.dead
        return out

    on = potentials._LateralKernel.on
    monkeypatch.setattr(potentials, "_near_boundary_rule",
                        counted("rule", potentials._near_boundary_rule))
    monkeypatch.setattr(potentials, "_barycentric_matrix",
                        counted("barycentric", potentials._barycentric_matrix))
    monkeypatch.setattr(potentials._LateralKernel, "on", profiled)
    monkeypatch.setattr(cx.CylinderMesh, "distance_to_wall",
                        counted("distance", cx.CylinderMesh.distance_to_wall))
    base = smooth_density(disk_mesh_B)
    phi = cx.DensityField("sigma3", base.values, counted("generator", base.generator))
    K = disk_mesh_B.tnodes.shape[0]
    reports = cx.jump_probe(disk_mesh_B, B2, phi, 23 * K + K // 2, ("double", "conormal_single"))
    assert len(reports) == 2
    assert calls == {"rule": 1, "barycentric": 1, "profile": 8, "generator": 2,
                     "distance": 0}


@pytest.mark.parametrize("fix, mat", [("disk_mesh_I", "I2"), ("disk_mesh_B", "B2"),
                                      ("ellipse_mesh_B", "B2"), ("star", "B2")])
def test_trimmed_ladder_matches_the_full_grid_sums(fix, mat, request):
    # the full shared grid and one product per kind, as before the ladder
    # trimmed each offset to its live columns and shared one time sum
    A = request.getfixturevalue(mat)
    mesh = _star_mesh(A) if fix == "star" else request.getfixturevalue(fix)
    phi = smooth_density(mesh)
    K = mesh.tnodes.shape[0]
    b, k = mesh.n_boundary // 5, K // 2
    node, t0, nu = b * K + k, float(mesh.tnodes[k]), mesh.bnormals[b]
    reports = cx.jump_probe(mesh, A, phi, node, ("double", "conormal_single"))
    offsets = reports[0].offsets
    graded = potentials._near_boundary_rule(
        mesh, mesh.bpoints[b], potentials._graded_depth(mesh.cs, offsets[-1]))
    kernels = [potentials._LateralKernel(mesh, A, mesh.offset_point(node, h)[0], t0, False, graded)
               for h in np.concatenate([offsets, -offsets])]
    grid = potentials._TimeGrid(mesh, A, t0, False, min(kernel.u0min for kernel in kernels))
    on_grid = potentials._samples(mesh, phi, graded) @ grid.interp
    p = 1.0 + A.n / 2.0
    vw = grid.vw * np.exp((p - 1.0) * grid.vnodes)
    got = [np.concatenate([r.interior_values, r.exterior_values]) for r in reports]
    worst = 0.0
    for i, kernel in enumerate(kernels):
        with np.errstate(under="ignore"):
            decay = np.exp(np.multiply.outer(-kernel.u0, np.exp(grid.vnodes)))
        live = kernel.on(grid).decay.shape[1]
        assert np.all(decay[:, live:] <= math.exp(-potentials._U_CAP))
        diff = kernel.x[None, :] - kernel.points
        geoms = (0.5 * np.einsum("ij,ij->i", kernel.normals, diff), -0.5 * diff @ nu)
        for j, geom in enumerate(geoms):
            inner = (on_grid.copy() * decay * kernel.tau_hi ** (1.0 - p)) @ vw
            want = grid.pref * np.sum(kernel.weights * geom * inner)
            worst = max(worst, abs(got[j][i] - want) / abs(want))
    assert worst <= 1e-13


def test_jump_ladder_trims_columns_and_shares_one_time_sum(disk_mesh_B, B2, monkeypatch):
    # each offset's profile spans its live columns only, both kinds share
    # one decay x density product per offset, and the shared density on the
    # grid is neither copied nor scaled
    profiles, sums = [], []
    on, apply = potentials._LateralKernel.on, potentials._LateralKernel.apply

    def profiled(kernel, grid, buffer=None):
        out = on(kernel, grid, buffer)
        live = np.count_nonzero(kernel.u0min * np.exp(grid.vnodes) <= potentials._U_CAP)
        profiles.append((kernel.u0min, out.decay.shape[1], live, grid.vnodes.size))
        return out

    def summed(kernel, kinds, on_grid, nu_fixed=None):
        sums.append((kinds, on_grid, on_grid.copy() if not sums else None))
        return apply(kernel, kinds, on_grid, nu_fixed)

    monkeypatch.setattr(potentials._LateralKernel, "on", profiled)
    monkeypatch.setattr(potentials._LateralKernel, "apply", summed)
    K = disk_mesh_B.tnodes.shape[0]
    cx.jump_probe(disk_mesh_B, B2, smooth_density(disk_mesh_B), 23 * K + K // 2,
                  ("double", "conormal_single"))
    assert len(profiles) == 8 and all(cols == live for _, cols, live, _ in profiles)
    innermost, outermost = min(profiles), max(profiles)
    assert innermost[1] == innermost[3]
    # the outermost offset, h0 / 32, keeps 167 of the 210 columns here
    assert outermost[1] < outermost[3]
    assert len(sums) == 8
    shared, before = sums[0][1:3]
    assert all(kinds == ("double", "conormal_fixed") and on_grid is shared
               for kinds, on_grid, _ in sums)
    assert np.array_equal(shared, before)


def test_decay_profile_zeroes_exponents_below_the_floor(disk_mesh_B, B2):
    # exp is slow on underflowing arguments: the profile floors its exponent
    # at _LOG_FLOOR and sets what lay below it to exactly 0
    mesh = disk_mesh_B
    K = mesh.tnodes.shape[0]
    t0 = float(mesh.tnodes[K // 2])
    h = potentials._JUMP_H0_FACTOR * mesh.diameter * 0.5 ** potentials._JUMP_RUNGS[-1]
    x = mesh.offset_point(23 * K + K // 2, h)[0]
    graded = potentials._near_boundary_rule(mesh, x, depth=potentials._graded_depth(mesh.cs, h))
    kernel = potentials._LateralKernel(mesh, B2, x, t0, False, graded)
    decay = kernel.on(potentials._TimeGrid(mesh, B2, t0, False, kernel.u0min)).decay
    exponent = np.multiply.outer(-kernel.u0, np.exp(kernel.grid.vnodes))[:, :decay.shape[1]]
    below = exponent < potentials._LOG_FLOOR
    assert np.any(below)
    assert np.array_equal(decay[~below], np.exp(exponent[~below]))
    assert np.all(decay[below] == 0.0)


def test_offset_without_live_columns_adds_nothing(disk_mesh_B, B2):
    # an offset whose u0min sits just below the cap can have no column with
    # u0min e^v <= cap on a grid laid out for a smaller u0min
    x, t = np.array([0.5, 0.1]), 0.5
    kernel = potentials._LateralKernel(disk_mesh_B, B2, x, t, False)
    grid = potentials._TimeGrid(disk_mesh_B, B2, t, False, kernel.u0min)
    kernel.u0 = kernel.u0 * (0.999 * potentials._U_CAP / kernel.u0min)
    kernel.u0min = 0.999 * potentials._U_CAP
    buffer = np.empty(kernel.u0.size * grid.vnodes.size)
    assert kernel.on(grid, buffer).decay.shape == (kernel.u0.size, 0)
    on_grid = np.ones((kernel.u0.size, grid.vnodes.size))
    nu = disk_mesh_B.bnormals[0]
    assert kernel.apply(("double", "conormal_fixed"), on_grid, nu) == [0.0, 0.0]


def test_jump_probe_refuses_before_sampling(disk_mesh_I, ball_mesh, I2, I3, monkeypatch):
    # every refusal comes before the graded rule is built or sampled
    built = []
    monkeypatch.setattr(potentials, "_near_boundary_rule",
                        lambda *args, **kwargs: built.append(args))
    calls = []

    def gen(p, t, nu):
        calls.append(p.shape[0])
        return 1.0 + 0.3 * p[:, 0] + 0.2 * t * t

    K = disk_mesh_I.tnodes.shape[0]
    node = 7 * K + K // 2
    phi = cx.DensityField("sigma3", np.ones(disk_mesh_I.n_lateral), gen)
    sampled = cx.DensityField.from_values(disk_mesh_I, "sigma3", np.ones(disk_mesh_I.n_lateral))
    ball_phi = cx.DensityField("sigma3", np.ones(ball_mesh.n_lateral), gen)
    refusals = [
        (ValueError, disk_mesh_I, I2, phi, node, ("double", "triple")),
        (ValueError, disk_mesh_I, I2, phi, node, ("triple", "double")),
        (ValueError, disk_mesh_I, I2, phi, node, ()),
        (ValueError, disk_mesh_I, I2, phi, node, "triple"),
        (DimensionMismatch, ball_mesh, I3, ball_phi, 5 * ball_mesh.tnodes.shape[0] + 3,
         ("double", "conormal_single")),
        (ValueError, disk_mesh_I, I2, sampled, node, ("double", "conormal_single")),
        (CornerTooClose, disk_mesh_I, I2, phi, 7 * K, ("double", "conormal_single")),
        (CornerTooClose, disk_mesh_I, I2, phi, 7 * K + K - 1, "conormal_single"),
    ]
    for error, mesh, A, density, index, kind in refusals:
        with pytest.raises(error):
            cx.jump_probe(mesh, A, density, index, kind)
    assert built == [] and calls == []


def test_jump_probe_rejects_corner_times(disk_mesh_I, I2):
    phi = smooth_density(disk_mesh_I)
    with pytest.raises(CornerTooClose):
        cx.jump_probe(disk_mesh_I, I2, phi, 0, "double")


def test_conormal_single_layer_rejects_offset_beyond_diameter(disk_mesh_I, I2):
    # the target comes from CylinderMesh.offset_point, which refuses |h|
    # beyond the diameter on either side of the wall
    phi = smooth_density(disk_mesh_I)
    K = disk_mesh_I.tnodes.shape[0]
    h = 1.5 * disk_mesh_I.diameter
    for offset in (h, -h):
        with pytest.raises(OffsetTooLarge):
            cx.conormal_derivative_single_layer(disk_mesh_I, I2, phi, 3 * K + K // 2, offset)


@pytest.mark.parametrize("h", [0.0, -0.0])
def test_conormal_single_layer_refuses_a_zero_offset(disk_mesh_I, I2, h):
    # the node itself is refused by offset_point before any kernel would
    # find the target on the boundary
    phi = smooth_density(disk_mesh_I)
    K = disk_mesh_I.tnodes.shape[0]
    with pytest.raises(OffsetTooLarge):
        cx.conormal_derivative_single_layer(disk_mesh_I, I2, phi, 3 * K + K // 2, h)


def test_jump_probe_needs_generator(disk_mesh_I, I2):
    vals = np.ones(disk_mesh_I.n_lateral)
    sampled = cx.DensityField.from_values(disk_mesh_I, "sigma3", vals)
    K = disk_mesh_I.tnodes.shape[0]
    with pytest.raises(ValueError):
        cx.jump_probe(disk_mesh_I, I2, sampled, K // 2, "double")


def test_jump_probe_refuses_three_space(ball_mesh, I3):
    # there is no graded rule toward a 3-D wall, and the mesh rule misses the
    # limits by orders of magnitude, so the probe refuses before sampling
    calls = []

    def gen(p, t, nu):
        calls.append(p.shape[0])
        return 1.0 + 0.3 * p[:, 0] + 0.2 * t * t

    phi = cx.DensityField("sigma3", np.ones(ball_mesh.n_lateral), gen)
    K = ball_mesh.tnodes.shape[0]
    for kind in ("double", "conormal_single"):
        with pytest.raises(DimensionMismatch):
            cx.jump_probe(ball_mesh, I3, phi, 5 * K + K // 2, kind)
    assert calls == []


# -- boundary representation of caloric fields ------------------------------

@pytest.mark.parametrize("which", ["H", "H*"])
def test_representation_exponential(ellipse_mesh_B, B2, which):
    sign = +1 if which == "H" else -1
    fld = cx.CaloricExponentialField(B2, np.array([0.4, -0.3]), sign=sign)
    rng = np.random.default_rng(11)
    for x in interior_probes(ellipse_mesh_B.cs, rng, 5):
        t = rng.uniform(0.15, 0.85)
        assert discrepancy(ellipse_mesh_B, B2, fld, (x, t), which) < 1e-6
    for x in exterior_probes(ellipse_mesh_B.cs, rng, 3):
        t = rng.uniform(0.15, 0.85)
        assert discrepancy(ellipse_mesh_B, B2, fld, (x, t), which) < 1e-6


@pytest.mark.parametrize("which", ["H", "H*"])
def test_representation_translated_kernel(disk_mesh_B, B2, which):
    src = np.array([2.4, 1.0])
    if which == "H":
        fld = cx.TranslatedKernelField(B2, src, -0.3)
    else:
        fld = cx.TranslatedKernelField(B2, src, disk_mesh_B.T + 0.4,
                                       adjoint=True)
    rng = np.random.default_rng(13)
    for x in interior_probes(disk_mesh_B.cs, rng, 5):
        t = rng.uniform(0.15, 0.85)
        assert discrepancy(disk_mesh_B, B2, fld, (x, t), which) < 1e-6


def test_representation_check_samples_each_density_once(disk_mesh_B, B2, monkeypatch):
    sampled = cx.DensityField.from_function.__func__
    calls = []

    def counted(cls, mesh, region, fn):
        calls.append(region)
        return sampled(cls, mesh, region, fn)

    monkeypatch.setattr(cx.DensityField, "from_function", classmethod(counted))
    fld = cx.CaloricExponentialField(B2, np.array([0.4, -0.3]))
    with pytest.raises(ValueError):
        cx.representation_values(disk_mesh_B, B2, [fld], "H+")
    assert calls == []
    values = cx.representation_values(disk_mesh_B, B2, [fld], "H")
    assert sorted(calls) == ["sigma2", "sigma3", "sigma3"]
    rng = np.random.default_rng(17)
    for x in interior_probes(disk_mesh_B.cs, rng, 5) + exterior_probes(disk_mesh_B.cs, rng, 5):
        values((x, rng.uniform(0.15, 0.85)))
    assert len(calls) == 3


def _representation_cases(mesh, A):
    """Fields of both parities on ``mesh``: a caloric exponential and a
    kernel translated to a source outside the cylinder."""
    n = A.n
    xi = np.array([0.4, -0.3, 0.2][:n])
    src = np.array([2.4, 1.0, 0.5][:n]) * mesh.cs.radius_extremes()[1]
    return [
        ("H", cx.CaloricExponentialField(A, xi, sign=+1)),
        ("H*", cx.CaloricExponentialField(A, xi, sign=-1)),
        ("H", cx.TranslatedKernelField(A, src, -0.3)),
        ("H*", cx.TranslatedKernelField(A, src, mesh.T + 0.4, adjoint=True)),
    ]


@pytest.mark.parametrize("fix, mat", [("ellipse_mesh_B", "B2"), ("ball_mesh", "I3")])
def test_representation_check_keeps_no_state_between_targets(fix, mat, request):
    # radial fractions 0.97 and 1.03 put n = 2 targets on the graded
    # near-wall rule, which samples the generator per target
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    d = np.array([0.6, 0.8, 0.5][:A.n])
    d /= np.linalg.norm(d)
    rim = float(mesh.cs.radius(d[None, :])[0]) * d
    targets = [(frac * rim, t) for frac, t in
               ((0.5, 0.3), (0.97, 0.45), (1.03, 0.6), (1.5, 0.75))]
    for which, fld in _representation_cases(mesh, A):
        values = cx.representation_values(mesh, A, [fld], which)
        forward = [values(target) for target in targets]
        reverse = [values(target) for target in reversed(targets)][::-1]
        assert forward == reverse
        assert forward == [cx.representation_values(mesh, A, [fld], which)(target)
                           for target in targets]
        for on_wall in ((rim, 0.5), (mesh.bpoints[3], 0.5)):
            with pytest.raises(TargetOnBoundary):
                values(on_wall)
        assert values(targets[1]) == forward[1]


@pytest.mark.parametrize("fix, mat", [("ellipse_mesh_B", "B2"), ("ball_mesh", "I3")])
@pytest.mark.parametrize("which", ["H", "H*"])
def test_representation_values_match_the_per_layer_operators(fix, mat, which, request):
    # the densities at one target share one lateral and one cap kernel.  On
    # the graded near-wall rule (radial fractions 0.97 and 1.03, n = 2) they
    # keep the nodal time basis, and the sharing must not move a bit; on the
    # mesh rule each kind contracts in its densities' time basis, which drops
    # at most the rank cut max(shape) eps = len(fields) N eps of each density
    # (``_time_factors``), so the value moves by at most that many eps of
    # |D| + |S| + |C|
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    star = which == "H*"
    double, single, cap = ((cx.double_layer_star, cx.single_layer_star, cx.cap_potential_star)
                           if star else (cx.double_layer, cx.single_layer, cx.cap_potential))
    cap_region = "sigma1" if star else "sigma2"
    d = np.array([0.6, 0.8, 0.5][:A.n])
    d /= np.linalg.norm(d)
    rim = float(mesh.cs.radius(d[None, :])[0]) * d
    targets = [(frac * rim, t) for frac, t in
               ((0.5, 0.3), (0.97, 0.45), (1.03, 0.6), (1.5, 0.75))]
    fields = [cx.ConstantField()] + [fld for w, fld in _representation_cases(mesh, A)
                                     if w == which]
    values = cx.representation_values(mesh, A, fields, which)

    def sampled(region, fn):
        return cx.DensityField.from_function(mesh, region, fn)

    layers = [(sampled("sigma3", lambda p, s, nu, u=u: u.value(p, s)),
               None if u.conormal is None else sampled("sigma3", u.conormal),
               sampled(cap_region, lambda p, s, nu, u=u: u.value(p, s))) for u in fields]
    ones = (unit_density(mesh, "sigma3"), unit_density(mesh, cap_region))
    cut = len(fields) * mesh.n_boundary * np.finfo(float).eps

    def matches(value, d, s, c, graded):
        expect = d - s + c
        if graded:
            return value == expect
        return abs(value - expect) <= cut * (abs(d) + abs(s) + abs(c))

    for target in targets:
        got = values(target)
        assert len(got) == len(fields)
        graded = potentials._plan(mesh, A, *target, star).depth is not None
        for value, (trace, flux, top_or_bottom) in zip(got, layers):
            s = 0.0 if flux is None else single(mesh, A, flux, target)
            assert matches(value, double(mesh, A, trace, target), s,
                           cap(mesh, A, top_or_bottom, target), graded)
        assert matches(got[0], double(mesh, A, ones[0], target), 0.0,
                       cap(mesh, A, ones[1], target), graded)
    for on_wall in ((rim, 0.5), (mesh.bpoints[3], 0.5), (0.5 * rim, 0.0), (0.5 * rim, mesh.T)):
        with pytest.raises(TargetOnBoundary):
            values(on_wall)
    if mesh.cs.n == 2:
        # a density without a generator cannot take the graded rule, and
        # must not fall back to the mesh rule silently
        bare = cx.DensityField.from_values(mesh, "sigma3", layers[0][0].values)
        with pytest.raises(ValueError, match="generator"):
            potentials.representation_at(mesh, A, [(bare, None, layers[0][2])], targets[1],
                                         star=star)


def _lateral_densities(mesh, field):
    """The trace and the flux of ``field`` on the wall, as the layer
    representation samples them."""
    return (cx.DensityField.from_function(mesh, "sigma3", lambda p, s, nu: field.value(p, s)),
            cx.DensityField.from_function(mesh, "sigma3", field.conormal))


@pytest.mark.parametrize("fix, mat", [("disk_mesh_B", "B2"), ("ball_mesh", "I3")])
def test_time_basis_spans_the_identity_densities_at_their_rank(fix, mat, request):
    # the traces of u = 1 and u_H span two time functions, 1 and e^(rate t);
    # the flux of u_H and the trace and flux of u_H* one each.  The basis
    # has numpy's rank at numpy's default cut, is orthonormal, and drops at
    # most max(shape) eps sqrt(m) of each of the m densities
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    xi = np.array([0.4, -0.3, 0.2][:A.n])
    h_trace, h_flux = _lateral_densities(mesh, cx.CaloricExponentialField(A, xi, sign=+1))
    star_trace, star_flux = _lateral_densities(mesh, cx.CaloricExponentialField(A, xi, sign=-1))
    one = cx.DensityField.from_function(mesh, "sigma3", lambda p, s, nu: np.ones(len(s)))
    eps = np.finfo(float).eps
    for phis, rank in (([one, h_trace], 2), ([h_flux], 1), ([star_trace], 1), ([star_flux], 1)):
        basis, blocks = potentials._time_factors(mesh, phis)
        samples = [phi.values.reshape(mesh.n_boundary, -1) for phi in phis]
        stack = np.concatenate([s / np.linalg.norm(s) for s in samples])
        assert basis.shape == (mesh.tnodes.size, rank)
        assert rank == np.linalg.matrix_rank(stack)
        assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 4 * eps
        for s, block in zip(samples, blocks):
            assert np.array_equal(block, s @ basis)
            dropped = np.linalg.norm(s - block @ basis.T)
            assert dropped <= max(stack.shape) * eps * math.sqrt(len(phis)) * np.linalg.norm(s)


def test_time_basis_of_a_density_whose_squares_overflow(disk_mesh_B, B2):
    # a finite density near 1e160 has an infinite sum of squares; scaled by
    # its norm alone it would read as zero and drop out of the basis
    mesh = disk_mesh_B
    trace, _ = _lateral_densities(mesh, cx.CaloricExponentialField(B2, np.array([0.4, -0.3])))
    huge = cx.DensityField("sigma3", 1e160 * trace.values, None)
    basis, (block,) = potentials._time_factors(mesh, [huge])
    assert basis.shape == (mesh.tnodes.size, 1)
    assert np.allclose(basis, potentials._time_factors(mesh, [trace])[0], rtol=0.0, atol=1e-15)
    target = (np.array([0.3, 0.2]), 0.6)
    (value,) = potentials.representation_at(mesh, B2, [(huge, None, unit_density(mesh, "sigma2"))],
                                            target)
    double = cx.double_layer(mesh, B2, huge, target)
    assert abs(value - double - cx.cap_potential(mesh, B2, unit_density(mesh, "sigma2"), target)) \
        <= mesh.n_boundary * np.finfo(float).eps * abs(double)


@pytest.mark.parametrize("fix, mat", [("disk_mesh_B", "B2"), ("ball_mesh", "I3")])
def test_full_time_rank_keeps_the_nodal_basis(fix, mat, request):
    # a density of full time rank saves nothing in a basis of its own, so it
    # keeps the nodal one and the per-layer operators' bits
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    rng = np.random.default_rng(29)
    trace = cx.DensityField.from_values(mesh, "sigma3", rng.normal(size=mesh.n_lateral))
    flux = cx.DensityField.from_values(mesh, "sigma3", rng.normal(size=mesh.n_lateral))
    cap = cx.DensityField.from_values(mesh, "sigma2", rng.normal(size=len(mesh.cap_weights)))
    for phis in ([trace], [trace, flux]):
        basis, blocks = potentials._time_factors(mesh, phis)
        assert basis is None
        assert all(np.array_equal(block, phi.values.reshape(mesh.n_boundary, -1))
                   for block, phi in zip(blocks, phis))
    d = np.array([0.6, 0.8, 0.5][:A.n])
    for x in (0.3 * d, 1.6 * d):
        target = (x, 0.55)
        (value,) = potentials.representation_at(mesh, A, [(trace, flux, cap)], target)
        assert value == (cx.double_layer(mesh, A, trace, target)
                         - cx.single_layer(mesh, A, flux, target)
                         + cx.cap_potential(mesh, A, cap, target))


def test_zero_density_contracts_to_zero(ball_mesh, I3):
    # an all-zero density spans no time function: its kind's basis is empty,
    # its value 0, and next to u = 1 it leaves that value alone
    mesh = ball_mesh
    zero = cx.DensityField.from_values(mesh, "sigma3", np.zeros(mesh.n_lateral))
    zero_cap = cx.DensityField.from_values(mesh, "sigma2", np.zeros(len(mesh.cap_weights)))
    one, one_cap = unit_density(mesh, "sigma3"), unit_density(mesh, "sigma2")
    basis, blocks = potentials._time_factors(mesh, [zero])
    assert basis.shape == (mesh.tnodes.size, 0) and blocks[0].shape == (mesh.n_boundary, 0)
    target = (np.array([0.1, -0.2, 0.3]), 0.5)
    assert potentials.representation_at(mesh, I3, [(zero, zero, zero_cap)], target) == [0.0]
    alone = potentials.representation_at(mesh, I3, [(one, None, one_cap)], target)
    paired = potentials.representation_at(mesh, I3, [(zero, zero, zero_cap), (one, None, one_cap)],
                                          target)
    assert paired == [0.0] + alone


def test_representation_refuses_non_finite_samples(disk, B2):
    # e^(rate t) overflows on the wall for |xi| = 400; under a shared time
    # basis that density would spoil its neighbours' values too
    mesh = cx.build_mesh(disk, B2, 1.0, 32, 16, 8)
    field = cx.CaloricExponentialField(B2, (400.0, 0.0))
    with pytest.raises(DegenerateData, match="sigma3"):
        cx.representation_values(mesh, B2, [cx.ConstantField(), field])


@pytest.mark.parametrize("fix, mat", [("ellipse_mesh_B", "B2"), ("ball_mesh", "I3")])
@pytest.mark.parametrize("which", ["H", "H*"])
def test_representation_measures_the_wall_once_per_target(fix, mat, which, request,
                                                          monkeypatch):
    # one Location per target: its kind, the lateral rule switch and
    # the Gauss-Hermite clearance of the cap all read one radial gap and
    # one wall distance
    mesh = request.getfixturevalue(fix)
    A = request.getfixturevalue(mat)
    fields = [cx.ConstantField()] + [fld for w, fld in _representation_cases(mesh, A)
                                     if w == which]
    values = cx.representation_values(mesh, A, fields, which)
    calls = {"distance": 0, "gap": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(type(mesh), "distance_to_wall",
                        counted("distance", type(mesh).distance_to_wall))
    monkeypatch.setattr(cx.CrossSection, "radial_gap",
                        counted("gap", cx.CrossSection.radial_gap))
    d = np.array([0.6, 0.8, 0.5][:A.n])
    d /= np.linalg.norm(d)
    rim = float(mesh.cs.radius(d[None, :])[0]) * d
    targets = [(frac * rim, t) for frac, t in
               ((0.3, 0.5), (0.5, 0.3), (0.97, 0.45), (1.03, 0.6), (1.5, 0.75))]
    for target in targets:
        values(target)
    assert calls == {"distance": len(targets), "gap": len(targets)}


# -- cap potentials and the initial limit -----------------------------------

def test_initial_limit_recovers_density(ellipse_mesh_B, B2):
    def f(p, t, nu):
        return np.sin(p[:, 0]) * np.exp(0.3 * p[:, 1])
    phi = cx.DensityField.from_function(ellipse_mesh_B, "sigma2", f)
    rng = np.random.default_rng(17)
    for x in interior_probes(ellipse_mesh_B.cs, rng, 10, frac=(0.0, 0.6)):
        val = cx.cap_potential(ellipse_mesh_B, B2, phi, (x, 1e-4))
        assert abs(val - float(f(x[None, :], None, None)[0])) < 1e-3


def test_initial_limit_error_decreases(ellipse_mesh_B, B2):
    def f(p, t, nu):
        return np.sin(p[:, 0]) * np.exp(0.3 * p[:, 1])
    phi = cx.DensityField.from_function(ellipse_mesh_B, "sigma2", f)
    x = np.array([0.3, 0.2])
    exact = float(f(x[None, :], None, None)[0])
    errs = [abs(cx.cap_potential(ellipse_mesh_B, B2, phi,
                                 (x, t)) - exact)
            for t in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]


def test_mesh_cap_rule_matches_the_direct_sum(ellipse_mesh_B, B2):
    # a density without a generator takes the mesh rule even at t = 1e-4;
    # its shell kernel keeps the weighted sum of the direct G at the
    # initial-limit targets to the kernel's error bound
    mesh = ellipse_mesh_B
    def f(p, t, nu):
        return np.sin(p[:, 0]) * np.exp(0.3 * p[:, 1])
    phi = cx.DensityField.from_values(mesh, "sigma2", f(mesh.cap_points, None, None))
    rng = np.random.default_rng(17)
    for x in interior_probes(mesh.cs, rng, 10, frac=(0.0, 0.6)) + [np.array([0.3, 0.2])]:
        for t in (1e-2, 1e-3, 1e-4):
            got = cx.cap_potential(mesh, B2, phi, (x, t))
            g = cx.fundamental_solution(B2, x[None, :] - mesh.cap_points, t)
            want = float(np.sum(mesh.cap_weights * phi.values * g))
            scale = float(np.sum(np.abs(mesh.cap_weights * phi.values)))
            scale *= cx.fundamental_solution(B2, np.zeros(2), t)
            bound = shell_kernel_bound(B2, x, mesh.cs.radius_extremes()[1], t)
            assert abs(got - want) <= bound * scale, (x, t)


def test_final_limit_mirrors_initial(disk_mesh_I, I2):
    def f(p, t, nu):
        return np.cos(p[:, 0] + 0.5 * p[:, 1])
    top = cx.DensityField.from_function(disk_mesh_I, "sigma1", f)
    x = np.array([0.2, -0.3])
    val = cx.cap_potential_star(disk_mesh_I, I2, top,
                                (x, disk_mesh_I.T - 1e-4))
    assert abs(val - float(f(x[None, :], None, None)[0])) < 1e-3


def test_cap_region_guards(disk_mesh_I, I2):
    wall = smooth_density(disk_mesh_I)
    with pytest.raises(DimensionMismatch):
        cx.cap_potential(disk_mesh_I, I2, wall,
                         (np.array([0.1, 0.1]), 0.5))


@pytest.mark.parametrize("region", ["sigma2", "sigma3"])
def test_from_values_needs_one_value_per_node(disk_mesh_I, region):
    m = disk_mesh_I.region_nodes(region)[0].shape[0]
    for bad in (np.ones((m, 3)), np.ones((m, 1)), np.ones(m + 1), 1.0):
        with pytest.raises(DimensionMismatch):
            cx.DensityField.from_values(disk_mesh_I, region, bad)
    assert cx.DensityField.from_values(disk_mesh_I, region, np.ones(m)).values.shape == (m,)


def test_cap_quadrature_paths_agree(disk_mesh_I, I2):
    # target far enough from the wall for the Hermite path, late enough
    # that the mesh rule also resolves the Gaussian
    def f(p, t, nu):
        return np.cos(p[:, 0]) * (1.0 + 0.2 * p[:, 1])
    phi = cx.DensityField.from_function(disk_mesh_I, "sigma2", f)
    vals = f(disk_mesh_I.cap_points, None, None)
    sampled = cx.DensityField.from_values(disk_mesh_I, "sigma2", vals)
    target = (np.array([0.05, 0.0]), 2e-3)
    hermite = cx.cap_potential(disk_mesh_I, I2, phi, target)
    mesh_rule = cx.cap_potential(disk_mesh_I, I2, sampled, target)
    assert hermite == pytest.approx(mesh_rule, rel=1e-8)


def test_plan_takes_gauss_hermite_where_the_gaussian_clears_the_wall(disk_mesh_I, I2):
    # the target above, and one whose Gaussian reaches the wall
    x = np.array([0.05, 0.0])
    assert potentials._plan(disk_mesh_I, I2, x, 2e-3, False).hermite
    assert not potentials._plan(disk_mesh_I, I2, x, 0.5, False).hermite
    assert not potentials._plan(disk_mesh_I, I2, x, 2e-3, True).hermite


def test_caps_outside_their_time_window(disk_mesh_I, I2):
    # the bottom cap is empty before t = 0 and the top cap after t = T: their
    # potentials are 0 there, and finite on the other side of the cylinder
    def f(p, t, nu):
        return np.cos(p[:, 0]) * (1.0 + 0.2 * p[:, 1])
    x = np.array([0.3, 0.1])
    bottom = cx.DensityField.from_function(disk_mesh_I, "sigma2", f)
    top = cx.DensityField.from_function(disk_mesh_I, "sigma1", f)
    assert disk_mesh_I.T == 1.0
    assert cx.cap_potential(disk_mesh_I, I2, bottom, (x, -0.2)) == 0.0
    assert cx.cap_potential(disk_mesh_I, I2, bottom, (x, 1.3)) == pytest.approx(
        0.1522185959456192, rel=1e-12)
    assert cx.cap_potential_star(disk_mesh_I, I2, top, (x, -0.2)) == pytest.approx(
        0.16349639158321638, rel=1e-12)
    assert cx.cap_potential_star(disk_mesh_I, I2, top, (x, 1.3)) == 0.0


# -- elliptic boundary identity --------------------------------------------

@pytest.mark.parametrize("shape", ["ball", "ellipsoid"])
@pytest.mark.parametrize("mat", ["I3", "C3"])
def test_elliptic_identity(shape, mat, request):
    A = request.getfixturevalue(mat)
    cs = (cx.CrossSection.ball(1.0) if shape == "ball"
          else cx.CrossSection.ellipsoid(1.5, 1.0, 0.75))
    rng = np.random.default_rng(3)
    for _ in range(3):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r = float(cs.radius(d[None, :])[0])
        assert abs(cx.elliptic_gauss_identity(cs, A, 0.45 * r * d) - 1.0) < 1e-6
        assert abs(cx.elliptic_gauss_identity(cs, A, 1.6 * r * d)) < 1e-6
        assert abs(cx.elliptic_gauss_identity(cs, A, r * d) - 0.5) < 1e-3


def _direct_elliptic_identity(cs, A, x, frame):
    """The off-surface identity with the sphere rule's frame built and
    <A^-1(x-y), x-y> formed directly, as before the rule was held, and the
    roundoff bound of the held rule against it: each expanded q sums at most
    n + 2 rounded terms of size <= (|x| + rho_max)^2 ||A^-1|| and each
    <nu, x> - <nu, y> two of size <= |x| + rho_max, as in
    ``shell_kernel_bound``, and a term w <nu, x-y> / q^(n/2) moves by n/2
    times its relative error in q plus its error in <nu, x-y>."""
    dirs, sphere_w = sphere_rule(potentials._SURFACE_AZIMUTH)
    pts, jac, inward = frame(cs, dirs)
    value = float(np.sum(sphere_w * jac * -cx.elliptic_conormal_kernel(A, x, pts, inward)))
    q = A.qform_inv(x - pts)
    num = np.einsum("ij,ij->i", inward, x - pts)
    reach = np.linalg.norm(x) + cs.radius_extremes()[1]
    dq = 32.0 * np.finfo(float).eps * reach ** 2 * np.linalg.norm(A.inv, 2)
    dnum = 8.0 * np.finfo(float).eps * reach
    w = sphere_w * jac / (unit_sphere_area(A.n) * math.sqrt(A.det))
    bound = np.sum(w * q ** (-A.n / 2.0) * (A.n / 2.0 * np.abs(num) * dq / q + dnum))
    return value, float(bound)


@pytest.mark.parametrize("shape", ["ball", "ellipsoid"])
@pytest.mark.parametrize("mat", ["I3", "C3"])
def test_held_surface_rule_matches_the_direct_sum(shape, mat, request, monkeypatch):
    # the held rule expands q(x - y) = q(x) - 2 <A^-1 y, x> + q(y), so it
    # loses a few eps (|x| + rho_max)^2 ||A^-1|| of q to cancellation: within
    # that bound everywhere, and within 1e-13 at the CLI's probe fractions
    # and 1e-6 from the surface; at 0.99 to 1.01 the bound reaches 1e-9,
    # where the fixed rule itself misses the identity by about 0.2
    A = request.getfixturevalue(mat)
    cs = cx.CrossSection.ball(1.0) if shape == "ball" else cx.CrossSection.ellipsoid(1.0, 0.5, 0.3)
    frame = cx.CrossSection.surface_frame
    frames = []

    def counted(self, dirs):
        frames.append(len(dirs))
        return frame(self, dirs)

    monkeypatch.setattr(cx.CrossSection, "surface_frame", counted)
    gauss = cx.elliptic_gauss_values(cs, A)
    assert frames == [sphere_rule(potentials._SURFACE_AZIMUTH)[0].shape[0]]
    rng = np.random.default_rng(29)
    for d in rng.normal(size=(3, 3)):
        d /= np.linalg.norm(d)
        r = float(cs.radius(d[None, :])[0])
        for frac in (0.15, 0.8, 0.99, 0.999, 1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.3, 1.8):
            got = gauss(frac * r * d)
            want, bound = _direct_elliptic_identity(cs, A, frac * r * d, frame)
            assert abs(got - want) <= bound, (frac, got - want, bound)
            if frac not in (0.99, 0.999, 1.01):
                assert abs(got - want) <= 1e-13, (frac, got - want)
        assert len(frames) == 1
        # a target on the surface keeps its own polar rule, and its floats
        assert gauss(r * d) == cx.elliptic_gauss_identity(cs, A, r * d)
        del frames[1:]
    again = cx.elliptic_gauss_values(cs, A)
    assert len(frames) == 2 and again.keywords["rule"] is not gauss.keywords["rule"]


def test_surface_identity_refuses_before_building_a_rule(disk, I2, I3, monkeypatch):
    frames = []
    monkeypatch.setattr(cx.CrossSection, "surface_frame", lambda self, dirs: frames.append(dirs))
    ball = cx.CrossSection.ball(1.0)
    for error, cs, A in ((DimensionTooSmall, disk, I2), (DimensionMismatch, ball, I2)):
        with pytest.raises(error):
            cx.elliptic_gauss_values(cs, A)
        with pytest.raises(error):
            cx.elliptic_gauss_identity(cs, A, np.full(cs.n, 0.3))
    assert frames == []


# -- on-wall limits are averaged by the two-sided probe ---------------------

def test_two_sided_limits_straddle_onwall_average(disk_mesh_I, I2):
    # recorded behavior: interior and exterior extrapolations differ by the
    # predicted jump, so their midpoint estimates the principal value
    phi = smooth_density(disk_mesh_I)
    K = disk_mesh_I.tnodes.shape[0]
    rep = cx.jump_probe(disk_mesh_I, I2, phi, 11 * K + K // 2, "double")
    mid = 0.5 * (rep.interior_limit + rep.exterior_limit)
    assert rep.exterior_limit < mid < rep.interior_limit
    assert math.isfinite(mid)
