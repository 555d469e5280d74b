import math

import numpy as np
import pytest

import calorix as cx
from calorix.errors import (
    DimensionMismatch,
    InvalidResolution,
    OffsetTooLarge,
)
from calorix.quadrature import gauss_legendre, periodic_trapezoid, sphere_rule

# perimeter of the (2, 1) ellipse, frozen from the arithmetic-geometric
# series and confirmed by direct arc-length quadrature
ELLIPSE_PERIMETER = 9.688448220547675


# -- cross-sections ---------------------------------------------------------

def test_disk_radius_constant(disk):
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    assert np.allclose(disk.radius(dirs), 1.0)


def test_ellipse_radius_extremes(ellipse):
    lo, hi = ellipse.radius_extremes()
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)


def test_star_requires_positive_radius():
    with pytest.raises(ValueError):
        cx.CrossSection.star(1.0, (1.2,))


def test_star_with_zero_wobble_is_disk(disk, I2):
    star = cx.CrossSection.star(1.0)
    m1 = cx.build_mesh(disk, I2, 1.0, 32, 8, 8)
    m2 = cx.build_mesh(star, I2, 1.0, 32, 8, 8)
    assert np.allclose(m1.bpoints, m2.bpoints)
    assert np.allclose(m1.bnormals, m2.bnormals)
    assert np.allclose(m1.bweights, m2.bweights)


def test_star_radius_extremes_sampled_once(I2, monkeypatch):
    # CylinderMesh.diameter and the graded depth ask for the extremes per
    # target; the star samples its radius on 4096 angles for the first call
    # only, and every call returns the same floats
    star = cx.CrossSection.star(1.0, (0.0, 0.0, 0.25))
    rho = star._star_rho(np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
    calls = []
    star_rho = cx.CrossSection._star_rho
    monkeypatch.setattr(cx.CrossSection, "_star_rho",
                        lambda self, phi: calls.append(np.size(phi)) or star_rho(self, phi))
    assert star.radius_extremes() == (float(rho.min()), float(rho.max()))
    assert calls == [4096]
    mesh = cx.build_mesh(star, I2, 1.0, 32, 8, 8)
    calls.clear()
    for _ in range(3):
        assert star.radius_extremes() == (float(rho.min()), float(rho.max()))
        assert mesh.diameter == 2.0 * float(rho.max())
    assert calls == []


# -- boundary measures ------------------------------------------------------

def test_disk_boundary_measures(disk_mesh_I):
    assert float(np.sum(disk_mesh_I.bweights)) == pytest.approx(
        2.0 * math.pi, rel=1e-13)
    assert float(np.sum(disk_mesh_I.cap_weights)) == pytest.approx(
        math.pi, rel=1e-13)
    assert float(np.sum(disk_mesh_I.lateral_weights())) == pytest.approx(
        2.0 * math.pi * 1.0, rel=1e-13)


def test_ellipse_perimeter_series_oracle(ellipse_mesh_I):
    assert float(np.sum(ellipse_mesh_I.bweights)) == pytest.approx(
        ELLIPSE_PERIMETER, rel=1e-12)


def test_cap_rule_integrates_polynomial(disk_mesh_I):
    # integral of x^2 + y^2 over the unit disk is pi/2
    pts = disk_mesh_I.cap_points
    val = float(np.sum(disk_mesh_I.cap_weights * np.sum(pts**2, axis=1)))
    assert val == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_sphere_measures(ball_mesh):
    assert float(np.sum(ball_mesh.bweights)) == pytest.approx(
        4.0 * math.pi, rel=1e-12)
    assert float(np.sum(ball_mesh.cap_weights)) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-12)


def test_sphere_rule_spectral_on_smooth(I3):
    # integral of exp(z) over the unit sphere is 4 pi sinh(1)
    exact = 4.0 * math.pi * math.sinh(1.0)
    vals = {}
    for m in (32, 64):
        mesh = cx.build_mesh(cx.CrossSection.ball(1.0), I3, 1.0, m, 4, 4)
        vals[m] = float(np.sum(mesh.bweights * np.exp(mesh.bpoints[:, 2])))
    assert abs(vals[64] - exact) < 1e-12
    assert abs(vals[32] - vals[64]) / abs(vals[64]) < 1e-6


def test_ellipsoid_area_converges(I3):
    cs = cx.CrossSection.ellipsoid(1.5, 1.0, 0.75)
    areas = {}
    for m in (48, 96, 144):
        mesh = cx.build_mesh(cs, I3, 1.0, m, 4, 4)
        areas[m] = float(np.sum(mesh.bweights))
    assert abs(areas[48] - areas[96]) / areas[96] < 1e-6
    assert abs(areas[96] - areas[144]) / areas[144] < 1e-13


# -- frames -----------------------------------------------------------------

def test_ellipse_normals_match_implicit_gradient(ellipse_mesh_I):
    pts = ellipse_mesh_I.bpoints
    nrm = ellipse_mesh_I.bnormals
    grad = np.stack([2.0 * pts[:, 0] / 4.0, 2.0 * pts[:, 1]], axis=1)
    grad /= np.linalg.norm(grad, axis=1, keepdims=True)
    # stored normals point inward
    assert np.allclose(nrm, -grad, atol=1e-12)
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-14)


def test_ellipsoid_normals_match_implicit_gradient(I3):
    cs = cx.CrossSection.ellipsoid(1.5, 1.0, 0.75)
    mesh = cx.build_mesh(cs, I3, 1.0, 24, 4, 4)
    pts, nrm = mesh.bpoints, mesh.bnormals
    axes = np.array([1.5, 1.0, 0.75])
    grad = 2.0 * pts / axes[None, :]**2
    grad /= np.linalg.norm(grad, axis=1, keepdims=True)
    assert np.allclose(nrm, -grad, atol=1e-12)


def test_arc_jacobian_matches_finite_difference(ellipse):
    h = 1e-6
    for phi in (0.3, 1.2, 4.0):
        p0 = ellipse.boundary_frame(np.array([phi - h]))[0][0]
        p1 = ellipse.boundary_frame(np.array([phi + h]))[0][0]
        speed = float(np.linalg.norm(p1 - p0) / (2.0 * h))
        jac = float(ellipse.boundary_frame(np.array([phi]))[1][0])
        assert jac == pytest.approx(speed, rel=1e-8)


# -- mesh structure ---------------------------------------------------------

def test_time_rule_is_open_interval(disk_mesh_I):
    assert disk_mesh_I.tnodes.min() > 0.0
    assert disk_mesh_I.tnodes.max() < disk_mesh_I.T
    assert float(np.sum(disk_mesh_I.tweights)) == pytest.approx(1.0)


def test_region_nodes_times(disk_mesh_I):
    _, t2, _ = disk_mesh_I.region_nodes("sigma2")
    _, t1, _ = disk_mesh_I.region_nodes("sigma1")
    assert np.all(t2 == 0.0)
    assert np.all(t1 == disk_mesh_I.T)
    with pytest.raises(ValueError):
        disk_mesh_I.region_nodes("sigma9")


def test_lateral_index_round_trip(disk_mesh_I):
    K = disk_mesh_I.tnodes.shape[0]
    flat = 5 * K + 3
    assert disk_mesh_I.lateral_index(flat) == (5, 3)


def test_locate_classifications(disk_mesh_I):
    inside = disk_mesh_I.locate((np.array([0.2, 0.1]), 0.5))
    assert inside.kind == "interior"
    outside = disk_mesh_I.locate((np.array([1.5, 0.0]), 0.5))
    assert outside.kind == "exterior"
    wall = disk_mesh_I.locate((np.array([1.0, 0.0]), 0.5))
    assert wall.kind == "boundary" and wall.region == "sigma3"
    bottom = disk_mesh_I.locate((np.array([0.2, 0.1]), 0.0))
    assert bottom.kind == "boundary" and bottom.region == "sigma2"
    top = disk_mesh_I.locate((np.array([0.2, 0.1]), disk_mesh_I.T))
    assert top.kind == "boundary" and top.region == "sigma1"
    before = disk_mesh_I.locate((np.array([0.2, 0.1]), -0.5))
    assert before.kind == "exterior"


def test_offset_point_moves_along_normal(disk_mesh_I):
    K = disk_mesh_I.tnodes.shape[0]
    flat = 7 * K + 10
    b, k = disk_mesh_I.lateral_index(flat)
    inner = disk_mesh_I.offset_point(flat, 0.01)
    outer = disk_mesh_I.offset_point(flat, -0.01)
    x, t = inner  # a plain (x, t) pair
    assert np.array_equal(x, disk_mesh_I.bpoints[b] + 0.01 * disk_mesh_I.bnormals[b])
    assert t == disk_mesh_I.tnodes[k]
    assert disk_mesh_I.locate(inner).kind == "interior"
    assert disk_mesh_I.locate(outer).kind == "exterior"
    with pytest.raises(OffsetTooLarge):
        disk_mesh_I.offset_point(flat, 10.0)


def test_build_mesh_guards(disk, C3, I2):
    with pytest.raises(DimensionMismatch):
        cx.build_mesh(disk, C3, 1.0, 16, 8, 8)
    with pytest.raises(InvalidResolution):
        cx.build_mesh(disk, I2, 1.0, 1, 8, 8)
    with pytest.raises(InvalidResolution):
        cx.build_mesh(disk, I2, -1.0, 16, 8, 8)


def _per_dimension_mesh_arrays(cs, T, m_angular, m_time, m_radial):
    """The seven mesh arrays from the lateral and cap rules written out once
    per dimension, as the reference that build_mesh must reproduce."""
    s, ws = gauss_legendre(m_radial, 0.0, 1.0)
    if cs.n == 2:
        phi, wphi = periodic_trapezoid(m_angular)
        points, jac, inward = cs.boundary_frame(phi)
        bweights = wphi * jac
        rho_phi = cs.radius(np.stack([np.cos(phi), np.sin(phi)], axis=-1))
        cap_pts = (s[:, None, None] * (rho_phi[None, :, None] *
                                       np.stack([np.cos(phi), np.sin(phi)], axis=-1)[None, :, :]))
        cap_w = (ws[:, None] * s[:, None] * (rho_phi**2)[None, :] * wphi[None, :])
    else:
        dirs, wdirs = sphere_rule(m_angular)
        points, jac, inward = cs.sphere_frame(dirs)
        bweights = wdirs * jac
        rho = cs.radius(dirs)
        cap_pts = s[:, None, None] * (rho[None, :, None] * dirs[None, :, :])
        cap_w = ws[:, None] * s[:, None] ** 2 * (rho**3)[None, :] * wdirs[None, :]
    tnodes, tweights = gauss_legendre(m_time, 0.0, T)
    return {"bpoints": points, "bnormals": inward,
            "bweights": bweights, "tnodes": tnodes, "tweights": tweights,
            "cap_points": cap_pts.reshape(-1, cs.n), "cap_weights": cap_w.reshape(-1)}


@pytest.mark.parametrize("cs, resolutions", [
    (cx.CrossSection.disk(1.0), [(16, 4, 3), (96, 48, 24), (128, 48, 24)]),
    (cx.CrossSection.ellipse(2.0, 1.0), [(16, 4, 3), (96, 48, 24), (160, 48, 24)]),
    (cx.CrossSection.star(1.0, (0.1, 0.05), (0.0, 0.08)), [(16, 4, 3), (64, 16, 8), (96, 48, 24)]),
    (cx.CrossSection.ball(1.0), [(8, 4, 3), (32, 16, 8), (48, 32, 16)]),
    (cx.CrossSection.ellipsoid(1.5, 1.0, 0.75), [(8, 4, 3), (24, 8, 6), (32, 16, 8)]),
], ids=["disk", "ellipse", "star", "ball", "ellipsoid"])
def test_build_mesh_matches_per_dimension_rules(cs, resolutions):
    # one assembly for n = 2 and n = 3: only the angular rule and its frame
    # depend on n, and every array stays bit for bit what the separate
    # per-dimension rules give
    A = cx.make_coefficients(cs.n, np.eye(cs.n) + 0.25 * (1.0 - np.eye(cs.n)))
    for m in resolutions:
        mesh = cx.build_mesh(cs, A, 0.7, *m)
        for name, want in _per_dimension_mesh_arrays(cs, 0.7, *m).items():
            got = getattr(mesh, name)
            assert got.shape == want.shape and np.array_equal(got, want), (m, name)


def test_fingerprint_tracks_inputs(disk, I2):
    m1 = cx.build_mesh(disk, I2, 1.0, 16, 8, 8)
    m2 = cx.build_mesh(disk, I2, 1.0, 16, 8, 8)
    m3 = cx.build_mesh(disk, I2, 1.0, 24, 8, 8)
    assert m1.fingerprint() == m2.fingerprint()
    assert m1.fingerprint() != m3.fingerprint()


def test_mesh_to_csv(tmp_path, disk_mesh_I):
    path = tmp_path / "mesh.csv"
    cx.mesh_to_csv(disk_mesh_I, path)
    text = path.read_text()
    assert text.count("\n") > disk_mesh_I.n_boundary
    assert text.splitlines()[0].startswith("region")


# -- nearest boundary parameter ----------------------------------------------

def test_nearest_parameter_on_the_disk_is_the_polar_angle(disk):
    rng = np.random.default_rng(5)
    for r in (0.5, 0.97, 1.0 - 1e-6, 1.0 + 1e-6, 1.03, 1.3):
        for a in rng.uniform(-math.pi, math.pi, 6):
            x = r * np.array([math.cos(a), math.sin(a)])
            phi, dist = disk.nearest_parameter(x, 512)
            assert abs(math.remainder(phi - math.atan2(x[1], x[0]), 2.0 * math.pi)) <= 1e-13
            assert abs(dist - abs(1.0 - r)) <= 1e-13


def _brute_force_nearest(cs, x, fine_phi, fine_pts):
    """Nearest parameter by a fine grid, then a golden section of the squared
    distance over one grid spacing either side."""
    i = int(np.argmin(np.sum((fine_pts - x) ** 2, axis=1)))
    step = fine_phi[1] - fine_phi[0]

    def dist2(a):
        return float(np.sum((cs.boundary_frame(np.array([a]))[0][0] - x) ** 2))

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = fine_phi[i] - step, fine_phi[i] + step
    for _ in range(50):
        c, d = b - inv * (b - a), a + inv * (b - a)
        a, b = (a, d) if dist2(c) < dist2(d) else (c, b)
    return 0.5 * (a + b), math.sqrt(dist2(0.5 * (a + b)))


@pytest.mark.parametrize("cs", [cx.CrossSection.ellipse(1.2, 0.7),
                                cx.CrossSection.star(1.0, (0.0, 0.0, 0.25))],
                         ids=["ellipse", "star"])
def test_nearest_parameter_matches_brute_force(cs):
    # targets on the normal through boundary parameter phi0, 1e-6 to 0.3 from
    # the wall on both sides (below every radius of curvature met there), so
    # phi0 is the nearest parameter; the brute-force search confirms that it
    # is the global one.  A golden section of the squared distance resolves
    # the parameter only to about sqrt(eps), so the parameter is held to
    # phi0 at 1e-10 and to the brute force at its own resolution.
    fine_phi = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
    fine_pts = cs.boundary_frame(fine_phi)[0]
    phi0s = np.array([0.0, 0.3, 1.1, math.pi / 3.0, 2.0, 3.3, 4.4, 5.7])
    feet, _, inward = cs.boundary_frame(phi0s)
    for phi0, foot, nu in zip(phi0s, feet, inward):
        for d in (1e-6, 1e-3, 0.05, 0.3):
            for side in (+1.0, -1.0):
                x = foot + side * d * nu
                phi, dist = cs.nearest_parameter(x, 512)
                ref_phi, ref_dist = _brute_force_nearest(cs, x, fine_phi, fine_pts)
                assert abs(ref_dist - d) <= 1e-10
                assert abs(dist - ref_dist) <= 1e-10
                assert abs(math.remainder(phi - phi0, 2.0 * math.pi)) <= 1e-10
                assert abs(math.remainder(phi - ref_phi, 2.0 * math.pi)) <= 1e-7


def test_wall_frame_measures_once_and_agrees_with_locate(disk_mesh_I):
    for x, t in (((0.2, 0.1), 0.5), ((1.5, 0.0), 0.5), ((1.0, 0.0), 0.5),
                 ((0.2, 0.1), 0.0), ((0.2, 0.1), disk_mesh_I.T), ((0.2, 0.1), -0.5)):
        x = np.array(x)
        frame = disk_mesh_I.wall_frame((x, t))
        assert frame.location == disk_mesh_I.locate((x, t))
        assert frame.gap == disk_mesh_I.cs.radial_gap(x)
        assert frame.distance == disk_mesh_I.distance_to_wall(x)
