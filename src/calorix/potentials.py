"""Parabolic layer potentials on the cylinder boundary and their jump probes.

The lateral (double, single, conormal-of-single) potentials integrate a
density against kernels built from the fundamental solution.  The time
integral uses the exponential substitution u = <A^-1(x-y), (x-y)> / (4 (t-s)),
which turns the sharply peaked profile (t-s)^(-p) exp(-u) into a smooth
integrand on a log grid.  There is one time path: a lateral density is held
as samples at its rule's points x ``mesh.tnodes`` and interpolated in time
(barycentric Lagrange), so it must be smooth in t on [0, T].  The mesh rule
takes the nodal samples.  A closed-form generator serves only angular
resampling, onto the graded rule (sampled once per rule), and the
Gauss-Hermite rule of the caps.  Every lateral operator reaches a target by
one path: the target's ``WallFrame`` picks the rule, and n = 2 targets within
a few angular spacings of the wall take the graded one, so there a density
without a generator raises ValueError instead of taking the mesh rule.

Adjoint (star) variants integrate against the time-reversed kernel; they are
computed directly, and tests compare them with the forward operators on a
time-reflected cylinder.

Each potential has a per-target half and a per-density half.  The time half
of the lateral kernel (``_TimeGrid``: substituted time grid, barycentric
matrix) serves the targets at one time on one rule, its space half
(``_LateralKernel``: u0, one decay profile for every kernel kind) one target.
A target builds both, and its cap kernel, once, and applies every density
to them.  A jump ladder shares one time grid, the density on it and one
profile buffer among its offsets; each offset sums only its live columns,
and its kinds share that sum.  The partition identity is the representation of u = 1.

This module composes; it owns no kernel, node offset or quadrature rule.
Pointwise kernels (G, its conormal derivatives, the elliptic conormal
kernel) come from ``core``, targets moved off a lateral node from
``CylinderMesh.offset_point``, a target's location, radial gap and wall
distance from ``CylinderMesh.wall_frame``, the nearest wall parameter (a
Halley polish) from ``CrossSection.nearest_parameter``, and every rule
(graded, Gauss-Hermite, sphere, tensor) from ``quadrature``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _as_xt,
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
_JUMP_KINDS = {"double": "double", "conormal_single": "conormal_fixed"}  # -> lateral kind


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
        x = np.atleast_2d(np.asarray(points, dtype=float))
        t = np.asarray(times, dtype=float)
        rate = float(self.xi @ self.A.a @ self.xi)
        with np.errstate(over="ignore"):  # inf, which callers reject with a typed error
            return np.exp(x @ self.xi + float(self.sign) * t * rate)

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


def _geometry_factor(kind, diff, normals, nu_fixed):
    if kind == "single":
        return np.ones(normals.shape[0])
    if kind == "double":
        return 0.5 * np.einsum("ij,ij->i", normals, diff)
    if kind == "conormal_fixed":
        return -0.5 * diff @ nu_fixed
    raise ValueError(f"unknown kernel kind {kind!r}")


def _graded_depth(cs, dist):
    """Levels of the graded rule that resolve a target ``dist`` from the wall."""
    scale = max(dist, 1e-9) / max(cs.radius_extremes()[1], 1e-12)
    return int(min(48, max(8, math.ceil(math.log2(math.pi / max(scale, 1e-12))) + 1)))


def _near_wall(mesh, distance):
    """Whether a target ``distance`` from the nearest lateral mesh node takes
    the graded rule: n = 2 targets within a few angular spacings of it."""
    return mesh.cs.n == 2 and distance < _NEAR_FACTOR * mesh.boundary_spacing


def _near_boundary_rule(mesh, x, depth=None):
    """Graded composite Gauss rule in the boundary parameter, refined toward
    the boundary point nearest to x (planar sections only), as (points,
    weights, inward normals)."""
    phi_star, dist = mesh.cs.nearest_parameter(x, max(512, 4 * mesh.m_angular))
    depth = _graded_depth(mesh.cs, dist) if depth is None else depth
    nodes, wgl = composite_gauss(graded_edges_toward(phi_star, math.pi, depth),
                                 max(8, mesh.m_angular // 12))
    bp, jac, inward = mesh.cs.boundary_frame(nodes)
    return bp, wgl * jac, inward


def _samples(mesh, phi, graded):
    """phi at the lateral rule's points x ``mesh.tnodes``: the nodal values
    on the mesh rule (graded None), else its generator sampled on the
    graded rule."""
    if phi.region != "sigma3":
        raise DimensionMismatch("lateral potentials need a density on sigma3")
    K = mesh.tnodes.shape[0]
    if graded is None:
        return phi.values.reshape(mesh.n_boundary, K)
    if phi.generator is None:
        raise ValueError("the graded near-wall rule needs a density with a generator")
    bp, _, inward = graded
    samples = phi.generator(np.repeat(bp, K, axis=0), np.tile(mesh.tnodes, bp.shape[0]),
                            np.repeat(inward, K, axis=0))
    return np.asarray(samples, dtype=float).reshape(bp.shape[0], K)


@functools.lru_cache(maxsize=16)
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
    hit = diff == 0.0
    any_hit = hit.any()  # rare, and cheaper to test than to locate
    if any_hit:
        hit_rows, hit_cols = np.nonzero(hit)
        diff[hit_rows, hit_cols] = 1.0
    m = w[None, :] / diff
    m /= m.sum(axis=1, keepdims=True)
    if any_hit:
        m[hit_rows, :] = 0.0
        m[hit_rows, hit_cols] = 1.0
    return m


class _TimeGrid:
    """Time half of the lateral kernel at time t, for the targets at t on one
    rule: the grid v in [0, v_max], with u0min e^v_max = ``_U_CAP`` for their
    smallest u0 (within the causality window), its weights and the
    barycentric matrix ``interp`` from ``mesh.tnodes`` to its times."""

    def __init__(self, mesh, A, t, star, u0min):
        self.dead = True
        self.interp = np.zeros((mesh.tnodes.size, 0))  # a dead grid has no times
        if u0min >= _U_CAP:
            return  # empty window, or kernel dead at this separation
        tau_hi, tau_lo = (mesh.T - t, max(-t, 0.0)) if star else (t, max(t - mesh.T, 0.0))
        v_max = math.log(_U_CAP / u0min)
        if tau_lo > 0.0:
            v_max = min(v_max, math.log(tau_hi / tau_lo))
        if v_max <= 0.0:
            return

        panels = max(4, int(math.ceil(v_max)))
        self.vnodes, self.vw = composite_gauss(np.linspace(0.0, v_max, panels + 1), 10)
        tau_v = tau_hi * np.exp(-self.vnodes)
        times = (t + tau_v) if star else (t - tau_v)
        self.interp = _barycentric_matrix(mesh.tnodes, times).T
        self.pref = (4.0 * math.pi) ** (-A.n / 2.0) / math.sqrt(A.det)
        self.dead = False


class _LateralKernel:
    """Space half of the lateral kernel at one target, on the mesh rule
    (graded None) or the graded one: u0 = <A^-1(x-y), x-y> / (4 tau_hi) at the
    rule's points y (u0min is inf for an empty window) and, on the grid that
    ``on`` gives it, one decay profile exp(-u0 e^v) over the live columns,
    where u0min e^v <= ``_U_CAP``: all of its own grid, a prefix of one laid
    out for a smaller u0min.  Kinds of one exponent p share one time sum."""

    def __init__(self, mesh, A, x, t, star, graded=None):
        self.x = x
        self.points, self.weights, self.normals = (
            graded or (mesh.bpoints, mesh.bweights, mesh.bnormals))
        self.tau_hi = (mesh.T - t) if star else t  # as in the grid's window
        self.u0min = math.inf
        if self.tau_hi <= 0.0:
            return
        q = A.qform_inv(x[None, :] - self.points)
        scale = max(mesh.diameter, 1.0)
        if float(q.min()) <= (1e-12 * scale) ** 2:
            raise TargetOnBoundary("lateral potential evaluated on the boundary itself")
        self.u0 = q / (4.0 * self.tau_hi)
        self.u0min = float(self.u0.min())

    def on(self, grid, buffer=None):
        """Lay the profile out on ``grid``, in the flat ``buffer`` if given."""
        self.grid = grid
        self.dead = grid.dead or self.u0min >= _U_CAP
        if not self.dead:
            ev = np.exp(grid.vnodes)
            live = np.count_nonzero(self.u0min * ev <= _U_CAP)
            out = None if buffer is None else np.ndarray((self.u0.size, live), buffer=buffer)
            self.decay = np.multiply.outer(-self.u0, ev[:live], out=out)
            with np.errstate(under="ignore"):
                np.exp(self.decay, out=self.decay)
        return self

    def apply(self, kinds, on_grid, nu_fixed=None, into_profile=False):
        """Potential of a kind, or a list for a tuple of kinds of one exponent p,
        from one time sum of decay x ``on_grid`` x tau_hi^(1-p) e^((p-1) v), 0 when
        dead; the product overwrites the live columns of ``on_grid`` or, with
        ``into_profile``, the profile, which then serves no other sum."""
        names = (kinds,) if isinstance(kinds, str) else kinds
        values = [0.0] * len(names)
        if not self.dead:
            p = _kernel_exponent(names[0], self.x.size)
            live = self.decay.shape[1]
            prod = self.decay if into_profile else on_grid[:, :live]
            np.multiply(on_grid[:, :live], self.decay, out=prod)
            prod *= self.tau_hi ** (1.0 - p)
            inner = prod @ (self.grid.vw * np.exp((p - 1.0) * self.grid.vnodes))[:live]
            diff = None if names[0] == "single" else self.x[None, :] - self.points
            values = [float(self.grid.pref * np.sum(
                self.weights * _geometry_factor(kind, diff, self.normals, nu_fixed) * inner))
                for kind in names]
        return values[0] if isinstance(kinds, str) else values


def _target_kernel(mesh, A, x, t, star, frame):
    """The kernel of (x, t) on its own time grid, and the map of a density onto
    that grid; on the graded rule if the ``WallFrame`` puts x near the wall."""
    graded = _near_boundary_rule(mesh, x) if _near_wall(mesh, frame.distance) else None
    kernel = _LateralKernel(mesh, A, x, t, star, graded)
    grid = _TimeGrid(mesh, A, t, star, kernel.u0min)
    return kernel.on(grid), lambda phi: _samples(mesh, phi, graded) @ grid.interp


def _lateral_potential(mesh, A, phi, target, kind, nu_fixed=None, star=False):
    x, t = _as_xt(target)
    kernel, on_grid = _target_kernel(mesh, A, x, t, star, mesh.wall_frame((x, t)))
    return kernel.apply(kind, on_grid(phi), nu_fixed)


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


def _cap_values(mesh, A, phis, x, t, star, frame):
    """Cap potentials at (x, t) of the densities ``phis``, on one cap.

    Densities with a generator take the tensor Gauss-Hermite rule when the
    Gaussian fits inside the cross-section, by the target's ``WallFrame``;
    the rest share one G at the cap points.
    """
    T = mesh.T
    w = (T - t) if star else t
    if w <= 0.0:
        return [0.0] * len(phis)
    hermite = (any(phi.generator is not None for phi in phis) and frame.gap < 0.0
               and 12.0 * math.sqrt(w * A.eig_max) <= frame.distance)
    if hermite:
        uu, wwt = tensor_rule([gauss_hermite(_GH_POINTS)] * A.n)
        pts = x[None, :] + 2.0 * math.sqrt(w) * (uu @ A.chol.T)
        sample_t = np.full(pts.shape[0], T if star else 0.0)
    g = None
    out = []
    for phi in phis:
        if hermite and phi.generator is not None:
            vals = np.asarray(phi.generator(pts, sample_t, None), dtype=float)
            out.append(float(np.sum(wwt * vals) / math.pi ** (A.n / 2.0)))
            continue
        if g is None:
            g = fundamental_solution(A, x[None, :] - mesh.cap_points, w)
        out.append(float(np.sum(mesh.cap_weights * phi.values * g)))
    return out


def cap_potential(mesh, A, phi, target):
    """Potential of a bottom-cap density: integral over Omega of
    phi(y) G(x - y, t).  Converges to phi(x) as t -> 0+ for smooth phi."""
    if phi.region != "sigma2":
        raise DimensionMismatch("cap_potential needs a density on sigma2")
    x, t = _as_xt(target)
    return _cap_values(mesh, A, [phi], x, t, False, mesh.wall_frame((x, t)))[0]


def cap_potential_star(mesh, A, phi, target):
    """Top-cap potential with the reversed kernel: integral over Omega of
    phi(y) G(y - x, T - s); converges to phi(x) as s -> T-."""
    if phi.region != "sigma1":
        raise DimensionMismatch("cap_potential_star needs a density on sigma1")
    x, t = _as_xt(target)
    return _cap_values(mesh, A, [phi], x, t, True, mesh.wall_frame((x, t)))[0]


# ---------------------------------------------------------------------------
# identities


class ConstantField:
    """u = 1, caloric for H and H*.  Its conormal derivative vanishes, so
    ``conormal`` is None and its layer representation has no single layer."""

    conormal = None

    def value(self, points, times):
        return np.ones(np.atleast_2d(points).shape[0])


def representation_at(mesh, A, densities, target, star=False):
    """Layer representation D[u] - S[f] + C[u] at one target, for each
    (trace, flux, cap) density triple from ``representation_values``; flux
    None stands for zero flux and adds no single layer.

    All lateral densities share one lateral kernel, on the graded rule when
    the target is near the wall (each density then needs a generator), and
    all cap densities one cap kernel.  Raises TargetOnBoundary for a target
    on the boundary.  Public so that a traced run attributes the per-target
    work to this layer; the package does not export it.
    """
    x, t = _as_xt(target)
    frame = mesh.wall_frame((x, t))
    if frame.location.kind == "boundary":
        raise TargetOnBoundary("the layer representation needs an off-boundary target")
    kernel, on_grid = _target_kernel(mesh, A, x, t, star, frame)
    caps = _cap_values(mesh, A, [cap for _, _, cap in densities], x, t, star, frame)
    doubles = [kernel.apply("double", on_grid(trace)) for trace, _, _ in densities]
    # a zero single layer leaves D - S = D bit for bit
    singles = [0.0 if flux is None else kernel.apply("single", on_grid(flux))
               for _, flux, _ in densities]
    return [d - s + c for d, s, c in zip(doubles, singles, caps)]


def representation_values(mesh, A, fields, which="H"):
    """Layer representation of each caloric field in ``fields``, as a
    function of the target that returns one value per field.

    which='H': double layer of u minus single layer of du/d(conormal) plus
    the bottom-cap potential of u(., 0); this equals u at interior targets
    and 0 at exterior targets (target time inside (0, T), where the absent
    top-cap term vanishes).  which='H*' mirrors this with the adjoint
    operators and the top cap.  A field has ``value(points, times)`` and
    ``conormal(points, times, normals)``, or ``conormal = None`` for zero
    flux (``ConstantField``).  The trace, flux and cap-trace densities are
    sampled once, here; the returned callable holds them and no other state,
    and evaluates them all at a target through ``representation_at``.
    """
    if which not in ("H", "H*"):
        raise ValueError("which must be 'H' or 'H*'")
    star = which == "H*"
    densities = []
    for u in fields:
        def value(p, s, nu, u=u):
            return u.value(p, s)
        trace = DensityField.from_function(mesh, "sigma3", value)
        flux = (None if u.conormal is None
                else DensityField.from_function(mesh, "sigma3", u.conormal))
        cap = DensityField.from_function(mesh, "sigma1" if star else "sigma2", value)
        densities.append((trace, flux, cap))
    return functools.partial(representation_at, mesh, A, densities, star=star)


def representation_discrepancy(mesh, u_field, target, value):
    """How far a layer representation ``value`` at ``target`` is from what
    it represents: |value - u| at interior targets, |value| at exterior
    ones."""
    x, t = _as_xt(target)
    if mesh.locate((x, t)).kind == "interior":
        return abs(value - float(u_field.value(x[None, :], np.array([t]))[0]))
    return abs(value)


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
    the corners are rejected, and so is n != 2: there is no graded rule
    toward a 3-D wall yet, and the mesh rule misses these limits.

    A tuple of kinds gives a tuple of reports from one ladder.  Its offsets
    share one time grid and the density on it, each sums only the grid
    columns where its own decay is above exp(-45), and the kinds, of one
    exponent, share that sum.  Refusals precede sampling.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if not kinds or any(name not in _JUMP_KINDS for name in kinds):
        raise ValueError("kind must be 'double', 'conormal_single' or a non-empty tuple of them")
    if mesh.cs.n != 2:
        raise DimensionMismatch("jump probes need a planar cross-section (n = 2)")
    if phi.generator is None:
        raise ValueError("jump probes need a density with a closed-form generator")
    b, k = mesh.lateral_index(int(node_index))
    t0 = float(mesh.tnodes[k])
    if not (0.1 * mesh.T < t0 < 0.9 * mesh.T):
        raise CornerTooClose(f"node time {t0} within 10% of the cylinder corners")
    x0 = mesh.bpoints[b]
    nu = mesh.bnormals[b]

    offsets = _JUMP_H0_FACTOR * mesh.diameter * 0.5 ** np.arange(_JUMP_LEVELS)

    # one graded rule deep enough for the smallest offset, reused at every
    # level so the h-expansion seen by the extrapolation stays smooth
    probe = mesh.offset_point(node_index, offsets[-1])[0]
    graded = _near_boundary_rule(mesh, probe, depth=_graded_depth(mesh.cs, offsets[-1]))
    kernels = [_LateralKernel(mesh, A, mesh.offset_point(node_index, h)[0], t0, False, graded)
               for h in np.concatenate([offsets, -offsets])]
    grid = _TimeGrid(mesh, A, t0, False, min(kernel.u0min for kernel in kernels))
    on_grid = _samples(mesh, phi, graded) @ grid.interp
    values, buffer = [], np.empty(on_grid.size)  # holds each offset's profile in turn
    lateral = tuple(_JUMP_KINDS[name] for name in kinds)  # one exponent, so one time sum
    for kernel in kernels:
        values.append(kernel.on(grid, buffer).apply(lateral, on_grid, nu, into_profile=True))

    phi0 = float(np.asarray(phi.generator(x0[None, :], np.array([t0]), nu[None, :]))[0])
    reports = []
    for name, column in zip(kinds, np.array(values).T):
        vin, vex = column[:_JUMP_LEVELS], column[_JUMP_LEVELS:]
        li, le = richardson(vin[-_JUMP_RICHARDSON:]), richardson(vex[-_JUMP_RICHARDSON:])
        reports.append(JumpProbeReport(name, int(node_index), x0.copy(), t0, offsets, vin, vex,
                                       li, le, li - le, phi0 if name == "double" else -phi0))
    return reports[0] if isinstance(kind, str) else tuple(reports)
