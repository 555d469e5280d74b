"""Quadrature rules and special values; the one home of every rule in calorix.

Everything here is plain numpy; rules are returned as (nodes, weights)
pairs ready for a dot product, rules on the unit circle and sphere with
unit directions as nodes, for ``CrossSection.surface_frame``.  ``polar_rule``
is the one construction on the sphere; ``sphere_rule`` is its x3-axis case.
``geometry`` builds the cylinder mesh from these rules, and ``potentials``
and ``polynomials`` take their graded, Gauss-Hermite, polar, sphere and
tensor rules from here rather than building their own.
"""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def _leggauss(m):
    x, w = np.polynomial.legendre.leggauss(int(m))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(m, a=0.0, b=1.0):
    """Gauss-Legendre rule with m nodes mapped to the interval (a, b)."""
    x, w = _leggauss(int(m))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def periodic_trapezoid(m, period=2.0 * math.pi):
    """Equally spaced rule on [0, period); spectrally accurate for periodic smooth integrands."""
    m = int(m)
    nodes = np.arange(m) * (period / m)
    weights = np.full(m, period / m)
    return nodes, weights


def gauss_hermite(m):
    """Gauss-Hermite rule for the weight exp(-u^2) on the real line."""
    return np.polynomial.hermite.hermgauss(int(m))


def tensor_rule(rules):
    """Tensor product of one-dimensional (nodes, weights) rules.

    Returns points of shape (m, len(rules)), the first rule's axis varying
    slowest, and their weights, the products taken left to right.
    """
    grids = np.meshgrid(*[nodes for nodes, _ in rules], indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = rules[0][1]
    for _, w in rules[1:]:
        weights = np.multiply.outer(weights, w)
    return points, weights.reshape(-1)


def polar_rule(axis, polar, m_azimuth):
    """Rule on the unit sphere of R^3 about the unit vector ``axis``: a rule
    (cos gamma, sin gamma, weights) in the angle gamma from the axis, times an
    ``m_azimuth``-point trapezoid in azimuth.  Returns (directions of shape
    (m, 3), weights), the polar angle varying slowest."""
    axis = np.asarray(axis, dtype=float)
    e = np.zeros(3)
    e[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = e - (e @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    cos, sin, weights = polar
    psi, w_psi = periodic_trapezoid(m_azimuth)
    ring = np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2
    dirs = cos[:, None, None] * axis + sin[:, None, None] * ring
    return dirs.reshape(-1, 3), np.multiply.outer(weights, w_psi).reshape(-1)


@lru_cache(maxsize=16)
def sphere_rule(m_angular):
    """Gauss in the polar cosine times trapezoid in azimuth about the x3 axis:
    (directions of shape (m, 3), weights), cached and read-only."""
    ct, w = gauss_legendre(max(2, m_angular // 2), -1.0, 1.0)
    dirs, weights = polar_rule((0.0, 0.0, 1.0), (ct, np.sqrt(1.0 - ct**2), w), m_angular)
    dirs.setflags(write=False)
    weights.setflags(write=False)
    return dirs, weights


def composite_gauss(edges, npts):
    """Gauss-Legendre rule with npts nodes on each panel delimited by ``edges``;
    panels with b <= a are skipped."""
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep, None], edges[1:][keep, None]
    half = 0.5 * (b - a)
    x, w = _leggauss(int(npts))
    return (a + half * (x + 1.0)).reshape(-1), (half * w).reshape(-1)


def graded_edges_toward(center, half_width, depth):
    """Panel edges on [center - half_width, center + half_width] geometrically
    refined toward ``center``; depth controls the smallest panel size."""
    offs = half_width * 0.5 ** np.arange(depth + 1)
    left = center - offs
    right = (center + offs)[::-1]
    return np.concatenate([left, right])


def graded_circle_rule(centre, depth, npts):
    """Composite Gauss rule on the unit circle: npts nodes per panel of the
    polar angle, panels graded ``depth`` levels toward the direction of
    ``centre``.  Returns (directions of shape (m, 2), weights)."""
    edges = graded_edges_toward(math.atan2(centre[1], centre[0]), math.pi, depth)
    phi, weights = composite_gauss(edges, npts)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1), weights


def unit_sphere_area(n):
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
