"""Parabolic layer potentials on the cylinder boundary and their jump probes.

The lateral (double, single, conormal-of-single) potentials integrate a
density against kernels built from the fundamental solution.  The time
integral uses the exponential substitution u = <A^-1(x-y), (x-y)> / (4 (t-s)),
which turns the sharply peaked profile (t-s)^(-p) exp(-u) into a smooth
integrand on a log grid.  There is one time path: a lateral density is held
as samples at its rule's points x ``mesh.tnodes`` and interpolated in time
(barycentric Lagrange), so it must be smooth in t on [0, T].  The mesh rule
takes the nodal samples.  A closed-form generator serves only angular
resampling, onto the graded rule that n = 2 targets within a few angular
spacings of the wall get (sampled once per rule), and the Gauss-Hermite rule
of the bottom cap.

Adjoint (star) variants integrate against the time-reversed kernel; they are
computed directly, and tests compare them with the forward operators on a
time-reflected cylinder.  ``representation_check`` samples the Cauchy data
and cap trace of a caloric field once and returns the discrepancy of its
layer representation as a function of the target.

This module composes; it owns no kernel, node offset or quadrature rule.
Pointwise kernels (G, its conormal derivatives, the elliptic conormal
kernel) come from ``core``, targets moved off a lateral node from
``CylinderMesh.offset_point``, radial gaps from ``CrossSection.radial_gap``,
and every rule (graded, Gauss-Hermite, sphere, tensor) from ``quadrature``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    _as_xt,
    caloric_exponential,
    conormal_kernel_target,
    elliptic_conormal_kernel,
    fundamental_solution,
)
from .errors import CornerTooClose, DimensionMismatch, DimensionTooSmall, TargetOnBoundary
from .quadrature import (
    composite_gauss,
    gauss_hermite,
    gauss_legendre,
    graded_edges_toward,
    periodic_trapezoid,
    sphere_rule,
    tensor_rule,
)

_U_CAP = 45.0  # exp(-45) ~ 3e-20: truncation point of the substituted time integral
_GH_POINTS = 22
_NEAR_FACTOR = 3.0
# elliptic_gauss_identity: Gauss points in the polar angle of the on-surface
# rule, trapezoid points in azimuth of both surface rules
_SURFACE_POLAR = 64
_SURFACE_AZIMUTH = 128
# offset ladder of jump_probe (its docstring gives the values)
_JUMP_LEVELS = 9
_JUMP_H0_FACTOR = 0.05
_JUMP_RICHARDSON = 4


@dataclass
class DensityField:
    """Density on one boundary region: samples at the region's nodes plus an
    optional closed-form generator (points, times, normals) -> values used for
    resampling on refined rules."""

    region: str
    values: np.ndarray
    generator: object = None

    @classmethod
    def from_function(cls, mesh, region, fn):
        pts, ts, _ = mesh.region_nodes(region)
        normals = mesh.lateral_normals() if region == "sigma3" else None
        vals = np.asarray(fn(pts, ts, normals), dtype=float)
        return cls(region, vals, fn)

    @classmethod
    def constant(cls, mesh, region, value=1.0):
        value = float(value)
        return cls.from_function(mesh, region, lambda p, t, nu: np.full(p.shape[0], value))

    @classmethod
    def from_values(cls, mesh, region, values):
        pts, _, _ = mesh.region_nodes(region)
        vals = np.asarray(values, dtype=float)
        if vals.shape[0] != pts.shape[0]:
            raise DimensionMismatch("value count does not match the region's node count")
        return cls(region, vals, None)


class CaloricExponentialField:
    """u(x,t) = exp(<x, xi> + sign t <A xi, xi>); H-caloric for sign +1,
    adjoint-caloric for sign -1."""

    def __init__(self, A, xi, sign=+1):
        self.A = A
        self.xi = np.asarray(xi, dtype=float).reshape(-1)
        self.sign = int(sign)

    def value(self, points, times):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return caloric_exponential(self.A, (points, times), self.xi, self.sign)

    def conormal(self, points, times, normals):
        # <A nu, grad u> = <nu, A xi> u
        slope = np.atleast_2d(np.asarray(normals, dtype=float)) @ (self.A.a @ self.xi)
        return slope * self.value(points, times)


class TranslatedKernelField:
    """Caloric field from a shifted fundamental solution.

    adjoint=False: u(x,t) = G(x - x0, t - t0) with t0 < 0, solves H u = 0 on
    the cylinder.  adjoint=True: u(x,t) = G(x0 - x, t0 - t) with t0 > T,
    solves H* u = 0.
    """

    def __init__(self, A, source_x, source_t, adjoint=False):
        self.A = A
        self.x0 = np.asarray(source_x, dtype=float).reshape(-1)
        self.t0 = float(source_t)
        self.adjoint = bool(adjoint)

    def _tau(self, times):
        return (self.t0 - times) if self.adjoint else (times - self.t0)

    def value(self, points, times):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        times = np.asarray(times, dtype=float)
        return fundamental_solution(self.A, points - self.x0[None, :], self._tau(times))

    def conormal(self, points, times, normals):
        # G is even in its space argument, so the x-gradient ignores the
        # time orientation: both fields are G(x - x0, tau).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        tau = self._tau(np.asarray(times, dtype=float))
        return conormal_kernel_target(self.A, points, self.x0, normals, tau)


@dataclass
class JumpProbeReport:
    """Two-sided limit study of a lateral potential at one boundary node."""

    kind: str
    node_index: int
    x0: np.ndarray
    t0: float
    offsets: np.ndarray
    interior_values: np.ndarray
    exterior_values: np.ndarray
    interior_limit: float
    exterior_limit: float
    jump_estimate: float
    predicted_jump: float

    @property
    def error(self):
        return abs(self.jump_estimate - self.predicted_jump)

    @property
    def relative_error(self):
        scale = max(abs(self.predicted_jump), 1e-30)
        return self.error / scale


def richardson(values, ratio=2.0):
    """Limit of a sequence sampled at steps h, h/ratio, h/ratio^2, ...
    assuming a smooth expansion in h."""
    table = [float(v) for v in values]
    k = 1
    while len(table) > 1:
        fac = ratio**k
        table = [(fac * b - a) / (fac - 1.0) for a, b in zip(table[:-1], table[1:])]
        k += 1
    return table[0]


# ---------------------------------------------------------------------------
# lateral engine


def _kernel_exponent(kind, n):
    if kind == "single":
        return n / 2.0
    return 1.0 + n / 2.0  # double layer and conormal-of-single


def _geometry_factor(kind, x, pts, normals, nu_fixed):
    if kind == "single":
        return np.ones(pts.shape[0])
    diff = x[None, :] - pts
    if kind == "double":
        return 0.5 * np.einsum("ij,ij->i", normals, diff)
    if kind == "conormal_fixed":
        return -0.5 * diff @ nu_fixed
    raise ValueError(f"unknown kernel kind {kind!r}")


def _graded_depth(cs, dist):
    """Levels of the graded rule that resolve a target ``dist`` from the wall."""
    scale = max(dist, 1e-9) / max(cs.radius_extremes()[1], 1e-12)
    return int(min(48, max(8, math.ceil(math.log2(math.pi / max(scale, 1e-12))) + 1)))


def _near_boundary_rule(mesh, phi, x, depth=None):
    """Graded composite Gauss rule in the boundary parameter, refined toward
    the boundary point nearest to x (planar sections only), with the density
    generator sampled once on its points x ``mesh.tnodes``."""
    cs = mesh.cs
    coarse = max(512, 4 * mesh.m_angular)
    phis, _ = periodic_trapezoid(coarse)
    pts, _, _ = cs.boundary_frame(phis)
    d2 = np.sum((pts - x[None, :]) ** 2, axis=1)
    i0 = int(np.argmin(d2))
    lo = phis[i0] - 2.0 * math.pi / coarse
    hi = phis[i0] + 2.0 * math.pi / coarse

    def dist2(angle):
        p, _, _ = cs.boundary_frame(np.array([angle]))
        return float(np.sum((p[0] - x) ** 2))

    # golden-section polish of the nearest parameter
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = dist2(c), dist2(d)
    for _ in range(48):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = dist2(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = dist2(d)
    phi_star = 0.5 * (a + b)
    dist = math.sqrt(min(fc, fd))

    if depth is None:
        depth = _graded_depth(cs, dist)
    edges = graded_edges_toward(phi_star, math.pi, depth)
    npts = max(8, mesh.m_angular // 12)
    nodes, wgl = composite_gauss(edges, npts)
    bp, jac, inward = cs.boundary_frame(nodes)
    K = mesh.tnodes.shape[0]
    samples = phi.generator(np.repeat(bp, K, axis=0), np.tile(mesh.tnodes, bp.shape[0]),
                            np.repeat(inward, K, axis=0))
    return bp, wgl * jac, inward, np.asarray(samples, dtype=float).reshape(bp.shape[0], K)


@lru_cache(maxsize=16)
def _barycentric_weights(node_bytes):
    """Barycentric weights of the float64 nodes packed in ``node_bytes``,
    from log-products scaled to a largest magnitude of 1; read-only."""
    nodes = np.frombuffer(node_bytes)
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    logs = np.sum(np.log(np.abs(d)), axis=1)
    signs = np.prod(np.sign(d), axis=1)
    w = signs * np.exp(-(logs - logs.min()))
    w.setflags(write=False)
    return w


def _barycentric_matrix(nodes, times):
    """Rows: evaluation times; columns: interpolation nodes.  Row j holds the
    barycentric Lagrange weights that map nodal samples to a value at
    times[j].  Exact node hits degenerate to a unit row."""
    nodes = np.asarray(nodes, dtype=float)
    w = _barycentric_weights(nodes.tobytes())
    diff = times[:, None] - nodes[None, :]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    diff[hit_rows, hit_cols] = 1.0
    m = w[None, :] / diff
    m /= m.sum(axis=1, keepdims=True)
    if hit_rows.size:
        m[hit_rows, :] = 0.0
        m[hit_rows, hit_cols] = 1.0
    return m


def _lateral_sum(mesh, A, x, t, kind, nu_fixed, star, rule):
    """Weighted boundary sum with the substituted time integral.

    rule = (points, weights, normals, samples), where samples[i, k] is the
    density at points[i] and time mesh.tnodes[k]; the density at the
    substituted times is interpolated from these samples.
    """
    n = A.n
    T = mesh.T
    tau_hi = (T - t) if star else t
    if tau_hi <= 0.0:
        return 0.0
    tau_lo = max(-t, 0.0) if star else max(t - T, 0.0)
    pts, wts, normals, samples = rule

    q = A.qform_inv(x[None, :] - pts)
    qmin = float(q.min())
    scale = max(mesh.diameter, 1.0)
    if qmin <= (1e-12 * scale) ** 2:
        raise TargetOnBoundary("lateral potential evaluated on the boundary itself")
    u0 = q / (4.0 * tau_hi)
    u0min = float(u0.min())
    if u0min >= _U_CAP:
        return 0.0  # kernel dead at this separation
    v_max = math.log(_U_CAP / u0min)
    if tau_lo > 0.0:
        v_max = min(v_max, math.log(tau_hi / tau_lo))
    if v_max <= 0.0:
        return 0.0

    panels = max(4, int(math.ceil(v_max)))
    vnodes, vw = composite_gauss(np.linspace(0.0, v_max, panels + 1), 10)
    tau_v = tau_hi * np.exp(-vnodes)
    times = (t + tau_v) if star else (t - tau_v)

    p = _kernel_exponent(kind, n)
    with np.errstate(under="ignore"):
        profile = np.exp((p - 1.0) * vnodes[None, :] - u0[:, None] * np.exp(vnodes)[None, :])
    dens = samples @ _barycentric_matrix(mesh.tnodes, times).T

    inner = tau_hi ** (1.0 - p) * (profile * dens) @ vw
    geom = _geometry_factor(kind, x, pts, normals, nu_fixed)
    pref = (4.0 * math.pi) ** (-n / 2.0) / math.sqrt(A.det)
    return float(pref * np.sum(wts * geom * inner))


def _lateral_potential(mesh, A, phi, target, kind, nu_fixed=None, star=False, rule=None):
    if phi.region != "sigma3":
        raise DimensionMismatch("lateral potentials need a density on sigma3")
    x, t = _as_xt(target)
    if rule is None:
        if (phi.generator is not None and mesh.cs.n == 2
                and mesh.distance_to_wall(x) < _NEAR_FACTOR * mesh.boundary_spacing):
            rule = _near_boundary_rule(mesh, phi, x)
        else:
            rule = (mesh.bpoints, mesh.bweights, mesh.bnormals,
                    phi.values.reshape(mesh.n_boundary, mesh.tnodes.shape[0]))
    return _lateral_sum(mesh, A, x, t, kind, nu_fixed, star, rule)


# ---------------------------------------------------------------------------
# public lateral operators


def double_layer(mesh, A, phi, target):
    """Double layer: integral over sigma3 of phi times the source-conormal
    derivative of G; zero once causality empties the time window."""
    return _lateral_potential(mesh, A, phi, target, "double")


def single_layer(mesh, A, phi, target):
    """Single layer: integral over sigma3 of phi times G."""
    return _lateral_potential(mesh, A, phi, target, "single")


def double_layer_star(mesh, A, phi, target):
    """Adjoint double layer (time-reversed kernel, conormal at the node)."""
    return _lateral_potential(mesh, A, phi, target, "double", star=True)


def single_layer_star(mesh, A, phi, target):
    """Adjoint single layer."""
    return _lateral_potential(mesh, A, phi, target, "single", star=True)


def conormal_derivative_single_layer(mesh, A, phi, node_index, h):
    """Conormal derivative of the single layer at lateral node i, offset h.

    The derivative direction is frozen at the node (conormal A nu(x0)); the
    evaluation point is ``mesh.offset_point(node_index, h)``, which raises
    OffsetTooLarge when |h| exceeds the diameter or the point lands on the
    wrong side of the wall.
    """
    b, _ = mesh.lateral_index(int(node_index))
    target = mesh.offset_point(node_index, h)
    return _lateral_potential(mesh, A, phi, target, "conormal_fixed",
                              nu_fixed=mesh.bnormals[b])


# ---------------------------------------------------------------------------
# cap potentials


def _cap_value(mesh, A, phi, target, star):
    x, t = _as_xt(target)
    T = mesh.T
    w = (T - t) if star else t
    if w <= 0.0:
        return 0.0
    sample_t = T if star else 0.0

    if phi.generator is not None and mesh.cs.radial_gap(x) < 0.0:
        clearance = mesh.distance_to_wall(x)
        if 12.0 * math.sqrt(w * A.eig_max) <= clearance:
            # Gaussian fits inside the cross-section: tensor Gauss-Hermite
            uu, wwt = tensor_rule([gauss_hermite(_GH_POINTS)] * A.n)
            pts = x[None, :] + 2.0 * math.sqrt(w) * (uu @ A.chol.T)
            vals = np.asarray(
                phi.generator(pts, np.full(pts.shape[0], sample_t), None), dtype=float
            )
            return float(np.sum(wwt * vals) / math.pi ** (A.n / 2.0))

    g = fundamental_solution(A, x[None, :] - mesh.cap_points, w)
    return float(np.sum(mesh.cap_weights * phi.values * g))


def cap_potential(mesh, A, phi, target):
    """Potential of a bottom-cap density: integral over Omega of
    phi(y) G(x - y, t).  Converges to phi(x) as t -> 0+ for smooth phi."""
    if phi.region != "sigma2":
        raise DimensionMismatch("cap_potential needs a density on sigma2")
    return _cap_value(mesh, A, phi, target, star=False)


def cap_potential_star(mesh, A, phi, target):
    """Top-cap potential with the reversed kernel: integral over Omega of
    phi(y) G(y - x, T - s); converges to phi(x) as s -> T-."""
    if phi.region != "sigma1":
        raise DimensionMismatch("cap_potential_star needs a density on sigma1")
    return _cap_value(mesh, A, phi, target, star=True)


# ---------------------------------------------------------------------------
# identities


def partition_identity(mesh, A, target):
    """Double layer of 1 plus cap potential of 1.

    Equals 1 at interior points of the cylinder and 0 outside its closure;
    the target must stay off the boundary.
    """
    loc = mesh.locate(target)
    if loc.kind == "boundary":
        raise TargetOnBoundary("partition identity is not classical on the boundary")
    ones_lateral = DensityField.constant(mesh, "sigma3", 1.0)
    ones_cap = DensityField.constant(mesh, "sigma2", 1.0)
    return double_layer(mesh, A, ones_lateral, target) + cap_potential(mesh, A, ones_cap, target)


def representation_check(mesh, A, u_field, which="H"):
    """Discrepancy of the boundary representation of a caloric field, as a
    function of the target.

    which='H': double layer of u minus single layer of du/d(conormal) plus
    the bottom-cap potential of u(., 0), compared against u at interior
    targets and 0 at exterior targets (target time inside (0, T), where the
    absent top-cap term vanishes).  which='H*' mirrors this with the adjoint
    operators and the top cap.  The trace, flux and cap-trace densities are
    sampled once, here; the returned callable holds them and no other state.
    """
    if which not in ("H", "H*"):
        raise ValueError("which must be 'H' or 'H*'")
    star = which == "H*"
    double, single, cap = ((double_layer_star, single_layer_star, cap_potential_star) if star
                           else (double_layer, single_layer, cap_potential))
    trace = DensityField.from_function(mesh, "sigma3", lambda p, s, nu: u_field.value(p, s))
    flux = DensityField.from_function(mesh, "sigma3", u_field.conormal)
    cap_trace = DensityField.from_function(mesh, "sigma1" if star else "sigma2",
                                           lambda p, s, nu: u_field.value(p, s))

    def check(target):
        x, t = _as_xt(target)
        val = (double(mesh, A, trace, (x, t)) - single(mesh, A, flux, (x, t))
               + cap(mesh, A, cap_trace, (x, t)))
        loc = mesh.locate((x, t))
        if loc.kind == "boundary":
            raise TargetOnBoundary("representation check needs an off-boundary target")
        if loc.kind == "interior":
            return abs(val - float(u_field.value(x[None, :], np.array([t]))[0]))
        return abs(val)

    return check


def stokes_check(mesh, A, u_field, target, which="H"):
    """``representation_check(mesh, A, u_field, which)`` at one target."""
    return representation_check(mesh, A, u_field, which)(target)


def elliptic_gauss_identity(cs, A, x):
    """Surface integral of minus the elliptic conormal kernel over the
    cross-section boundary (n >= 3).

    Equals 1 for x inside, 0 outside, and 1/2 on the surface, where the
    weakly singular integrand is handled by a polar rule centred at x.
    """
    if cs.n < 3:
        raise DimensionTooSmall("the surface identity needs n >= 3")
    if cs.n != A.n:
        raise DimensionMismatch("cross-section and operator dimensions differ")
    x = np.asarray(x, dtype=float).reshape(-1)
    if abs(cs.radial_gap(x)) <= 1e-9 * cs.radius_extremes()[1]:
        # on the surface: polar angle gam about x, azimuth psi
        u0 = x / np.linalg.norm(x)
        e = np.zeros(3)
        e[int(np.argmin(np.abs(u0)))] = 1.0
        e1 = e - (e @ u0) * u0
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u0, e1)
        gam, wg = gauss_legendre(_SURFACE_POLAR, 0.0, math.pi)
        nodes, sphere_w = tensor_rule([(gam, wg * np.sin(gam)),
                                       periodic_trapezoid(_SURFACE_AZIMUTH)])
        gam, psi = nodes[:, :1], nodes[:, 1:]
        dirs = np.cos(gam) * u0 + np.sin(gam) * (np.cos(psi) * e1 + np.sin(psi) * e2)
    else:
        dirs, sphere_w = sphere_rule(_SURFACE_AZIMUTH)

    pts, jac, inward = cs.sphere_frame(dirs)
    integrand = -elliptic_conormal_kernel(A, x, pts, inward)
    return float(np.sum(sphere_w * jac * integrand))


# ---------------------------------------------------------------------------
# jump probes


def jump_probe(mesh, A, phi, node_index, kind="double"):
    """Approach a lateral node from both sides and extrapolate the limits.

    Offsets are h0 * 2^-k, k = 0..8, along the interior normal with h0 = 0.05
    times the domain diameter; the innermost 4 are extrapolated by
    Richardson.  The two-sided difference of the Richardson limits
    estimates the density jump: +phi for the double layer, -phi for the
    conormal derivative of the single layer.  Nodes with times within 10% of
    the corners are rejected.
    """
    if kind not in ("double", "conormal_single"):
        raise ValueError("kind must be 'double' or 'conormal_single'")
    if phi.generator is None:
        raise ValueError("jump probes need a density with a closed-form generator")
    b, k = mesh.lateral_index(int(node_index))
    t0 = float(mesh.tnodes[k])
    if not (0.1 * mesh.T < t0 < 0.9 * mesh.T):
        raise CornerTooClose(f"node time {t0} within 10% of the cylinder corners")
    x0 = mesh.bpoints[b]
    nu = mesh.bnormals[b]

    h0 = _JUMP_H0_FACTOR * mesh.diameter
    offsets = h0 * 0.5 ** np.arange(_JUMP_LEVELS)

    rule = None
    if mesh.cs.n == 2:
        # one graded rule deep enough for the smallest offset, reused at every
        # level so the h-expansion seen by the extrapolation stays smooth
        probe = mesh.offset_point(node_index, offsets[-1]).x
        depth = _graded_depth(mesh.cs, offsets[-1])
        rule = _near_boundary_rule(mesh, phi, probe, depth=depth)
    lateral_kind = "double" if kind == "double" else "conormal_fixed"

    def value_at(h):
        return _lateral_potential(mesh, A, phi, mesh.offset_point(node_index, h),
                                  lateral_kind, nu_fixed=nu, rule=rule)

    vin = np.array([value_at(+h) for h in offsets])
    vex = np.array([value_at(-h) for h in offsets])
    li = richardson(vin[-_JUMP_RICHARDSON:])
    le = richardson(vex[-_JUMP_RICHARDSON:])

    phi0 = float(np.asarray(phi.generator(x0[None, :], np.array([t0]), nu[None, :]))[0])
    predicted = phi0 if kind == "double" else -phi0
    return JumpProbeReport(
        kind=kind,
        node_index=int(node_index),
        x0=x0.copy(),
        t0=t0,
        offsets=offsets,
        interior_values=vin,
        exterior_values=vex,
        interior_limit=li,
        exterior_limit=le,
        jump_estimate=li - le,
        predicted_jump=predicted,
    )
