import math

import numpy as np
import pytest

import calorix as cx
from calorix import cli
from calorix.errors import (
    DimensionMismatch,
    InvalidResolution,
    OffsetTooLarge,
)
from calorix.quadrature import gauss_legendre, periodic_trapezoid, sphere_rule

from conftest import on_circle

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


@pytest.mark.parametrize("cs", [cx.CrossSection.ellipse(2.0, 1.0),
                                cx.CrossSection.star(1.0, (0.0, 0.0, 0.25)),
                                cx.CrossSection.disk(1.3)],
                         ids=["ellipse", "star", "disk1.3"])
def test_arc_jacobian_matches_finite_difference(cs):
    # the inward normal is the unit tangent turned a quarter counter-clockwise
    h = 1e-6
    for phi in (0.3, 1.2, 4.0):
        p0 = cs.surface_frame(on_circle([phi - h]))[0][0]
        p1 = cs.surface_frame(on_circle([phi + h]))[0][0]
        tangent = (p1 - p0) / (2.0 * h)
        speed = float(np.linalg.norm(tangent))
        _, jac, inward = cs.surface_frame(on_circle([phi]))
        assert float(jac[0]) == pytest.approx(speed, rel=1e-8)
        assert np.allclose(inward[0], np.array([-tangent[1], tangent[0]]) / speed,
                           rtol=0.0, atol=1e-8)


# one section per kind, off the special cases (unit radius, equal axes); a
# new kind in cli.GEOMETRIES fails here until it has an entry
_FRAME_PARAMS = {
    "disk": {"radius": 1.3},
    "ellipse": {"a": 1.2, "b": 0.7},
    "star": {"r0": 1.0, "cos3": 0.25},
    "ball": {"radius": 0.8},
    "ellipsoid": {"a": 1.0, "b": 0.8, "c": 0.6},
}


@pytest.mark.parametrize("kind", sorted(cli.GEOMETRIES))
def test_surface_frame_matches_finite_differences(kind):
    # P(u) = rho(u) u differenced along great circles through u in the
    # directions of an orthonormal tangent basis e_j: the rows dP/de_j span
    # the tangent space, the jacobian wrt the unit circle / sphere measure
    # is the volume they span, and the inward normal is the unit vector
    # orthogonal to them that points toward the origin
    cs = cli.GEOMETRIES[kind].build(**_FRAME_PARAMS[kind])
    n, h = cs.n, 1e-5
    rng = np.random.default_rng(18)
    dirs = rng.normal(size=(6, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points, jac, inward = cs.surface_frame(dirs)
    for u, p, j, nu in zip(dirs, points, jac, inward):
        basis, _ = np.linalg.qr(np.column_stack([u, rng.normal(size=(n, n - 1))]))
        rows = np.array([(cs.surface_frame(math.cos(h) * u + math.sin(h) * e)[0]
                          - cs.surface_frame(math.cos(h) * u - math.sin(h) * e)[0]) / (2.0 * h)
                         for e in basis[:, 1:].T])
        assert j == pytest.approx(math.sqrt(np.linalg.det(rows @ rows.T)), rel=1e-8)
        assert abs(np.linalg.norm(nu) - 1.0) <= 1e-14
        assert np.max(np.abs(rows @ nu)) <= 1e-8 * np.max(np.linalg.norm(rows, axis=1))
        assert nu @ u < 0.0
        assert abs(cs.radial_gap(p)) <= 1e-14
    for width in (n - 1, n + 1):
        with pytest.raises(DimensionMismatch):
            cs.surface_frame(np.ones((4, width)))


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
    assert disk_mesh_I.lateral_index(np.int64(flat)) == (5, 3)


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
    # h = 0 is the lateral node itself, on neither side of the wall
    for h in (10.0, math.nan, 0.0, -0.0, 0):
        with pytest.raises(OffsetTooLarge):
            disk_mesh_I.offset_point(flat, h)


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
        points, jac, inward = cs.surface_frame(on_circle(phi))
        bweights = wphi * jac
        rho_phi = cs.radius(on_circle(phi))
        cap_pts = s[:, None, None] * (rho_phi[None, :, None] * on_circle(phi)[None, :, :])
        cap_w = (ws[:, None] * s[:, None] * (rho_phi**2)[None, :] * wphi[None, :])
    else:
        dirs, wdirs = sphere_rule(m_angular)
        points, jac, inward = cs.surface_frame(dirs)
        bweights = wdirs * jac
        rho = cs.radius(dirs)
        cap_pts = s[:, None, None] * (rho[None, :, None] * dirs[None, :, :])
        cap_w = ws[:, None] * s[:, None] ** 2 * (rho**3)[None, :] * wdirs[None, :]
    tnodes, tweights = gauss_legendre(m_time, 0.0, T)
    return {"bpoints": points, "bnormals": inward,
            "bweights": bweights, "tnodes": tnodes, "tweights": tweights,
            "cap_points": cap_pts.reshape(-1, cs.n), "cap_weights": cap_w.reshape(-1),
            "cap_fractions": s}


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


@pytest.mark.parametrize("cs", [
    cx.CrossSection.disk(1.0), cx.CrossSection.ellipse(1.0, 0.25),
    cx.CrossSection.star(1.0, (0.0, 0.0, 0.25)), cx.CrossSection.ball(1.0),
    cx.CrossSection.ellipsoid(1.0, 0.5, 0.3),
], ids=["disk", "ellipse", "star", "ball", "ellipsoid"])
def test_cap_points_are_scaled_wall_points(cs):
    # the mesh cap kernel expands G(x - s_j p_b) about the wall points p_b,
    # so cap point (j, b) must be the radial fraction s_j times p_b exactly
    A = cx.make_coefficients(cs.n, np.eye(cs.n))
    for m in ((16, 4, 3), (64, 8, 12)) if cs.n == 2 else ((8, 4, 3), (16, 4, 8)):
        mesh = cx.build_mesh(cs, A, 0.7, *m)
        shells = mesh.cap_fractions[:, None, None] * mesh.bpoints[None, :, :]
        assert mesh.cap_fractions.shape == (mesh.m_radial,)
        assert np.array_equal(mesh.cap_points, shells.reshape(-1, cs.n)), m


def test_fingerprint_tracks_inputs(disk, I2):
    m1 = cx.build_mesh(disk, I2, 1.0, 16, 8, 8)
    m2 = cx.build_mesh(disk, I2, 1.0, 16, 8, 8)
    m3 = cx.build_mesh(disk, I2, 1.0, 24, 8, 8)
    assert m1.fingerprint() == m2.fingerprint()
    assert m1.fingerprint() != m3.fingerprint()


def test_locate_measures_gap_and_distance_once(disk_mesh_I):
    # one Location per target: its classification, the radial gap and the
    # distance to the nearest lateral mesh node
    for (x, t), kind, region in (
            (((0.2, 0.1), 0.5), "interior", None), (((1.5, 0.0), 0.5), "exterior", None),
            (((1.0, 0.0), 0.5), "boundary", "sigma3"), (((0.2, 0.1), 0.0), "boundary", "sigma2"),
            (((0.2, 0.1), disk_mesh_I.T), "boundary", "sigma1"),
            (((0.2, 0.1), -0.5), "exterior", None)):
        x = np.array(x)
        loc = disk_mesh_I.locate((x, t))
        assert (loc.kind, loc.region) == (kind, region)
        assert loc.gap == disk_mesh_I.cs.radial_gap(x)
        assert loc.distance == disk_mesh_I.distance_to_wall(x)
