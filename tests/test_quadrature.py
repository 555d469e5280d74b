import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calorix.quadrature import (
    composite_gauss,
    gauss_hermite,
    gauss_legendre,
    graded_circle_rule,
    graded_edges_toward,
    periodic_trapezoid,
    polar_rule,
    sphere_rule,
    tensor_rule,
    unit_sphere_area,
)


def test_gauss_legendre_monomials():
    x, w = gauss_legendre(6, 0.0, 1.0)
    # frozen antiderivative values on [0, 1]
    for k, exact in [(0, 1.0), (1, 0.5), (5, 1.0 / 6.0), (11, 1.0 / 12.0)]:
        assert abs(float(np.sum(w * x**k)) - exact) < 1e-15


def test_gauss_legendre_interval_shift():
    x, w = gauss_legendre(8, -2.0, 3.0)
    assert abs(float(np.sum(w)) - 5.0) < 1e-13
    assert x.min() > -2.0 and x.max() < 3.0


def test_periodic_trapezoid_trig():
    th, w = periodic_trapezoid(32)
    assert abs(float(np.sum(w)) - 2.0 * math.pi) < 1e-14
    # exact for trig polynomials below the aliasing order
    assert abs(float(np.sum(w * np.cos(th) ** 2)) - math.pi) < 1e-13
    assert abs(float(np.sum(w * np.sin(5 * th) * np.cos(3 * th)))) < 1e-13


def test_gauss_hermite_moments():
    u, w = gauss_hermite(20)
    assert abs(float(np.sum(w)) - math.sqrt(math.pi)) < 1e-13
    assert abs(float(np.sum(w * u**2)) - math.sqrt(math.pi) / 2.0) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_tensor_rule_exact_on_tensor_polynomials(dim):
    # m Gauss-Legendre nodes per axis integrate degree 2m - 1 exactly, so the
    # tensor rule is exact on x^7 y^9 z^5 over a box
    rules = [gauss_legendre(4, 0.0, 1.0), gauss_legendre(5, -1.0, 2.0),
             gauss_legendre(3, 0.5, 1.5)][:dim]
    bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)][:dim]
    powers = [7, 9, 5][:dim]
    pts, w = tensor_rule(rules)
    assert pts.shape == (int(np.prod([len(r[0]) for r in rules])), dim)
    assert w.shape == (pts.shape[0],)
    # the first axis varies slowest
    assert np.array_equal(pts[: len(rules[-1][0]), -1], rules[-1][0])
    quad = float(np.sum(w * np.prod(pts ** np.array(powers), axis=1)))
    exact = math.prod((b ** (p + 1) - a ** (p + 1)) / (p + 1)
                      for (a, b), p in zip(bounds, powers))
    assert abs(quad - exact) < 1e-13 * abs(exact)


def test_sphere_rule_is_cached_and_read_only():
    dirs, weights = sphere_rule(128)
    again = sphere_rule(128)
    assert again[0] is dirs and again[1] is weights
    for arr in (dirs, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("m", [16, 24, 32, 48, 128])
def test_sphere_rule_is_the_polar_cosine_trapezoid_product(m):
    # bit for bit the rule written out: Gauss in cos(theta) times a
    # trapezoid in azimuth, the polar cosine varying slowest
    ct, wct = gauss_legendre(max(2, m // 2), -1.0, 1.0)
    psi, wpsi = periodic_trapezoid(m)
    weights = np.multiply.outer(wct, wpsi).reshape(-1)
    ct, psi = np.repeat(ct, m), np.tile(psi, ct.size)
    st = np.sqrt(1.0 - ct**2)
    dirs = np.stack([st * np.cos(psi), st * np.sin(psi), ct], axis=-1)
    got = sphere_rule(m)
    assert np.array_equal(got[0], dirs) and np.array_equal(got[1], weights)


@pytest.mark.parametrize("centre, depth, npts", [((0.97, 0.1), 12, 8), ((-0.3, 1.02), 30, 8),
                                                 ((-1.0, -1e-3), 20, 16)])
def test_graded_circle_rule_is_the_graded_composite_gauss_rule(centre, depth, npts):
    # bit for bit composite Gauss on the graded panels, as (cos, sin)
    phi, w = composite_gauss(graded_edges_toward(math.atan2(centre[1], centre[0]), math.pi, depth),
                             npts)
    dirs, weights = graded_circle_rule(np.array(centre), depth, npts)
    assert np.array_equal(dirs, np.stack([np.cos(phi), np.sin(phi)], axis=-1))
    assert np.array_equal(weights, w)


def test_polar_rule_integrates_zonal_powers_about_any_axis():
    # (u.b)^k over the unit sphere is 4 pi / (k + 1) for even k, 0 for odd
    rng = np.random.default_rng(23)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    b = np.array([0.36, -0.48, 0.8])
    gam, wg = gauss_legendre(32, 0.0, math.pi)
    dirs, w = polar_rule(axis, (np.cos(gam), np.sin(gam), wg * np.sin(gam)), 64)
    assert dirs.shape == (32 * 64, 3) and w.shape == (32 * 64,)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(dirs @ axis - np.repeat(np.cos(gam), 64))) <= 1e-15
    for k in range(9):
        exact = 4.0 * math.pi / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.sum(w * (dirs @ b) ** k)) - exact) <= 1e-13


def test_composite_gauss_matches_single_panel():
    edges = np.linspace(0.0, 1.0, 5)
    x, w = composite_gauss(edges, 10)
    assert x.shape == (40,)
    f = np.exp(x)
    assert abs(float(np.sum(w * f)) - (math.e - 1.0)) < 1e-14


@pytest.mark.parametrize("edges", [
    graded_edges_toward(0.3, math.pi, 20),
    [0.0, 1.0, 1.0, 0.5, 2.0, 3.5],
    [1.0, 1.0],
    [2.0],
    [],
])
@pytest.mark.parametrize("npts", [8, 12])
def test_composite_gauss_equals_per_panel_rules(edges, npts):
    # bit for bit the concatenation of gauss_legendre over panels with b > a
    xs, ws = [np.empty(0)], [np.empty(0)]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            x, w = gauss_legendre(npts, a, b)
            xs.append(x)
            ws.append(w)
    x, w = composite_gauss(edges, npts)
    assert np.array_equal(x, np.concatenate(xs))
    assert np.array_equal(w, np.concatenate(ws))


def test_graded_edges_cluster_toward_center():
    edges = graded_edges_toward(0.0, 1.0, 6)
    gaps = np.diff(np.sort(edges))
    assert gaps.min() > 0.0
    # geometric refinement toward the target point
    assert gaps.min() < 0.05 * gaps.max()


def test_unit_sphere_area():
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert unit_sphere_area(3) == 4.0 * math.pi  # 2 pi^1.5 / math.gamma(1.5) rounds to 4 pi
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=8))
def test_gauss_legendre_exact_on_polynomials(coeffs):
    # an m-point rule integrates degree <= 2m-1 exactly
    m = 6
    x, w = gauss_legendre(m, 0.0, 1.0)
    quad = float(np.sum(w * np.polyval(coeffs, x)))
    exact = float(np.polyval(np.polyint(np.array(coeffs)), 1.0))
    assert abs(quad - exact) < 1e-12 * max(1.0, sum(abs(c) for c in coeffs))
