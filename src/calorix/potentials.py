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
Gauss-Hermite rule of the caps.  ``_plan`` is the one choice of a target's
rules, from its one ``Location``: n = 2 targets near the wall take the graded
lateral rule (a density without a generator raises ValueError there), graded
toward their polar angle as deep as their radial gap asks, and inside targets
whose Gaussian clears the wall take Gauss-Hermite caps, which no shipped run
does.  A jump probe fixes its own graded rule, centred on its node.

Adjoint (star) variants integrate against the time-reversed kernel; they are
computed directly, and tests compare them with the forward operators on a
time-reflected cylinder.

Each potential has a per-target half and a per-density half.  The time half
of the lateral kernel (``_TimeGrid``: substituted time grid, barycentric
matrix) serves the targets at one time on one rule, its space half
(``_LateralKernel``: x - y, u0, one decay profile) one target.  A target builds
both and its cap kernel once, and contracts the profile per kernel kind into
one dot product per density, in the time basis they span (``_time_factors``).  A
jump ladder's 8 offsets share one density on one time grid, each summing only its
live columns for all its kinds.  The partition identity represents u = 1.

This module composes; it owns no kernel, node offset or quadrature rule.
Pointwise kernels (G, its conormal derivatives, the elliptic conormal
kernel) come from ``core``, targets moved off a lateral node from
``CylinderMesh.offset_point``, a target's location, radial gap and wall
distance from ``CylinderMesh.locate``, and every rule (graded,
Gauss-Hermite, polar, sphere, tensor) from ``quadrature``, as unit
directions for ``CrossSection.surface_frame``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _LOG_FLOOR,
    _as_xt,
    conormal_kernel_target,
    elliptic_conormal_kernel,
    fundamental_solution,
    shell_fundamental_solution,
    shell_qform,
    shell_terms,
)
from .errors import (CornerTooClose, DegenerateData, DimensionMismatch, DimensionTooSmall,
                     TargetOnBoundary)
from .quadrature import (
    composite_gauss,
    gauss_hermite,
    gauss_legendre,
    graded_circle_rule,
    polar_rule,
    sphere_rule,
    tensor_rule,
    unit_sphere_area,
)

_U_CAP = 45.0  # exp(-45) ~ 3e-20: truncation point of the substituted time integral
_GH_POINTS = 22
_NEAR_FACTOR = 3.0
# elliptic_gauss_identity: Gauss points in the polar angle of the on-surface
# rule, trapezoid points in azimuth of both surface rules
_SURFACE_POLAR = 64
_SURFACE_AZIMUTH = 128
# offset ladder of jump_probe: h0 2^-k for k in _JUMP_RUNGS, h0 = _JUMP_H0_FACTOR x diameter
_JUMP_H0_FACTOR = 0.05
_JUMP_RUNGS = range(5, 9)
_JUMP_KINDS = {"double": "double", "conormal_single": "conormal_fixed"}  # -> lateral kind


@dataclass
class DensityField:
    """Density on one boundary region: samples at the region's nodes plus an
    optional closed-form generator (points, times, normals) -> values used for
    resampling on refined rules; ``from_function`` refuses non-finite samples."""

    region: str
    values: np.ndarray
    generator: object = None

    @classmethod
    def from_function(cls, mesh, region, fn):
        wall = region == "sigma3"  # points, times and normals; the weights are not built
        pts, ts = ((mesh.lateral_points(), mesh.lateral_times()) if wall
                   else mesh.region_nodes(region)[:2])
        vals = np.asarray(fn(pts, ts, mesh.lateral_normals() if wall else None), dtype=float)
        if not np.isfinite(vals).all():  # a shared time basis would spread it to other densities
            raise DegenerateData(f"{region}: the sampled density is not finite")
        return cls(region, vals, fn)

    @classmethod
    def from_values(cls, mesh, region, values):
        pts, _, _ = mesh.region_nodes(region)
        vals = np.asarray(values, dtype=float)
        if vals.shape != pts.shape[:1]:
            raise DimensionMismatch(f"{region}: values of shape {vals.shape} for {len(pts)} nodes")
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
    """Two-sided limit study of a lateral potential at one boundary node: the
    Richardson rungs (offsets, outermost first) and the values at them."""

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


@dataclass(frozen=True)
class _Plan:
    """The rules of one target, chosen by ``_plan``."""
    kind: str  # of its Location
    depth: int | None  # of its graded lateral rule; None: the mesh rule
    hermite: bool  # its caps take Gauss-Hermite


def _plan(mesh, A, x, t, star):
    """The rules of (x, t): the graded lateral rule within a few angular spacings of the nearest
    lateral node (n = 2), as deep as the radial gap asks; Gauss-Hermite caps inside where the
    Gaussian of width w = t (T - t if star) > 0 clears that node by 12 sqrt(w lambda_max)."""
    loc = mesh.locate((x, t))
    w = (mesh.T - t) if star else t
    near = mesh.cs.n == 2 and loc.distance < _NEAR_FACTOR * mesh.boundary_spacing
    hermite = loc.gap < 0.0 and w > 0.0 and 12.0 * math.sqrt(w * A.eig_max) <= loc.distance
    return _Plan(loc.kind, _graded_depth(mesh.cs, abs(loc.gap)) if near else None, hermite)


def _near_boundary_rule(mesh, centre, depth):
    """Graded composite Gauss rule in the polar angle, ``depth`` levels deep
    toward the angle of ``centre`` (planar sections only), as (points,
    weights, inward normals)."""
    dirs, weights = graded_circle_rule(centre, depth, max(8, mesh.m_angular // 12))
    bp, jac, inward = mesh.cs.surface_frame(dirs)
    return bp, weights * jac, inward


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


def _time_factors(mesh, phis, graded=None):
    """Densities ``phis`` as (B, blocks), samples ~ block @ B.T.  On the mesh rule B (K x r) is an
    orthonormal time basis of their samples: row-pivoted Gram-Schmidt, re-orthogonalised, on their
    stack at unit norms until the rest is at most max(shape) eps max |stack q| over the pivots q, so
    r >= numpy's matrix_rank and each density drops at most max(shape) eps sqrt(len(phis)) of its
    norm.  The graded rule and a rank with r (N + K) >= N K take the nodal B, None."""
    samples = [_samples(mesh, phi, graded) for phi in phis]
    if graded is not None or not samples:
        return None, samples
    N, K = samples[0].shape
    peaks = (s / (np.abs(s).max() or 1.0) for s in samples)  # their squares cannot overflow
    rest = np.concatenate([u / (np.linalg.norm(u) or 1.0) for u in peaks])
    cut, sigma, basis = max(rest.shape) * np.finfo(float).eps, 0.0, np.empty((K, 0))
    while basis.shape[1] * (N + K) < N * K:
        sq = np.einsum("ij,ij->i", rest, rest)
        if math.sqrt(sq.sum()) <= cut * sigma:
            return basis, [s @ basis for s in samples]
        q = rest[np.argmax(sq)]
        for _ in range(2):
            q = q - basis @ (basis.T @ q)
        q /= np.linalg.norm(q)
        coef = rest @ q
        sigma = max(sigma, float(np.linalg.norm(coef)))
        rest -= np.multiply.outer(coef, q)
        basis = np.column_stack([basis, q])
    return None, samples


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
    (graded None) or the graded one: x - y and u0 = <A^-1(x-y), x-y> / (4 tau_hi)
    at the rule's points y (u0min is inf for an empty window) and, on the grid that
    ``on`` gives it, one decay profile exp(-u0 e^v) over the live columns,
    where u0min e^v <= ``_U_CAP``: all of its own grid, a prefix of one laid
    out for a smaller u0min.  A target's densities share one ``contract`` per
    kind; a ladder's kinds of one exponent p share one time sum (``apply``)."""

    def __init__(self, mesh, A, x, t, star, graded=None):
        self.x = x
        self.points, self.weights, self.normals = (
            graded or (mesh.bpoints, mesh.bweights, mesh.bnormals))
        self.tau_hi = (mesh.T - t) if star else t  # as in the grid's window
        self.u0min = math.inf
        if self.tau_hi <= 0.0:
            return
        self.diff = x[None, :] - self.points
        q = A.qform_inv(self.diff)
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
            # exp is slow on underflowing arguments: floor them, then zero them
            dead = self.decay < _LOG_FLOOR
            np.exp(np.maximum(self.decay, _LOG_FLOOR, out=self.decay), out=self.decay)
            self.decay[dead] = 0.0
        return self

    def contract(self, kind, blocks, nu_fixed=None, basis=None):
        """Potentials of ``kind`` of densities block @ basis.T (``_time_factors``; None: the
        identity), 0 when dead: vdot(block, W), W = decay @ (interp vw e^((p-1) v)
        tau_hi^(1-p))^T @ basis over the live columns, times pref, weights and geometry factor."""
        if self.dead or not blocks:
            return [0.0] * len(blocks)
        p = _kernel_exponent(kind, self.x.size)
        live = self.decay.shape[1]
        c = (self.grid.vw * np.exp((p - 1.0) * self.grid.vnodes))[:live] * self.tau_hi ** (1.0 - p)
        right = (self.grid.interp[:, :live] * c).T
        W = self.decay @ (right if basis is None else right @ basis)
        W *= (self.grid.pref * self.weights
              * _geometry_factor(kind, self.diff, self.normals, nu_fixed))[:, None]
        return [float(np.vdot(one, W)) for one in blocks]

    def apply(self, kinds, on_grid, nu_fixed):
        """Potentials of a tuple of kinds of one exponent p from one time sum of
        decay x ``on_grid`` x tau_hi^(1-p) e^((p-1) v), 0 when dead: the jump
        ladder's order, whose offsets share ``on_grid``.  The product
        overwrites the profile, which then serves no other sum."""
        if self.dead:
            return [0.0] * len(kinds)
        p = _kernel_exponent(kinds[0], self.x.size)
        live = self.decay.shape[1]
        prod = np.multiply(on_grid[:, :live], self.decay, out=self.decay)
        prod *= self.tau_hi ** (1.0 - p)
        inner = prod @ (self.grid.vw * np.exp((p - 1.0) * self.grid.vnodes))[:live]
        return [float(self.grid.pref * np.sum(
            self.weights * _geometry_factor(kind, self.diff, self.normals, nu_fixed) * inner))
            for kind in kinds]


def _target_kernel(mesh, A, x, t, star, plan):
    """The kernel of (x, t) on its own time grid, and its rule: the graded one
    at the depth of its ``_Plan`` ``plan``, else None (the mesh rule)."""
    graded = None if plan.depth is None else _near_boundary_rule(mesh, x, plan.depth)
    kernel = _LateralKernel(mesh, A, x, t, star, graded)
    kernel.on(_TimeGrid(mesh, A, t, star, kernel.u0min))
    return kernel, graded


def _lateral_potential(mesh, A, phi, target, kind, nu_fixed=None, star=False):
    x, t = _as_xt(target)
    kernel, graded = _target_kernel(mesh, A, x, t, star, _plan(mesh, A, x, t, star))
    return kernel.contract(kind, [_samples(mesh, phi, graded)], nu_fixed)[0]


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
    b, _ = mesh.lateral_index(node_index)
    target = mesh.offset_point(node_index, h)
    return _lateral_potential(mesh, A, phi, target, "conormal_fixed",
                              nu_fixed=mesh.bnormals[b])


# ---------------------------------------------------------------------------
# cap potentials


def _cap_rule(mesh, A, phis):
    """Per-run half of the mesh cap rule: shell terms and cap weights x values."""
    return shell_terms(A, mesh.bpoints), [mesh.cap_weights * phi.values for phi in phis]


def _cap_values(mesh, A, phis, x, t, star, plan, rule=None):
    """Cap potentials at (x, t) of ``phis`` on one cap, on ``rule`` or a fresh ``_cap_rule``:
    the tensor Gauss-Hermite rule for densities with a generator where the target's ``_Plan``
    ``plan`` says so, else one G at the cap points, from the shell kernel."""
    T = mesh.T
    w = (T - t) if star else t
    if w <= 0.0:
        return [0.0] * len(phis)
    hermite = plan.hermite and any(phi.generator is not None for phi in phis)
    if hermite:
        uu, wwt = tensor_rule([gauss_hermite(_GH_POINTS)] * A.n)
        pts = x[None, :] + 2.0 * math.sqrt(w) * (uu @ A.chol.T)
        sample_t = np.full(pts.shape[0], T if star else 0.0)
    g, out = None, []
    for k, phi in enumerate(phis):
        if hermite and phi.generator is not None:
            vals = np.asarray(phi.generator(pts, sample_t, None), dtype=float)
            out.append(float(np.sum(wwt * vals) / math.pi ** (A.n / 2.0)))
            continue
        if g is None:
            terms, weighted = rule or _cap_rule(mesh, A, phis)
            g = shell_fundamental_solution(A, x, terms, mesh.cap_fractions, w).reshape(-1)
        out.append(float(np.sum(weighted[k] * g)))
    return out


def cap_potential(mesh, A, phi, target):
    """Potential of a bottom-cap density: integral over Omega of
    phi(y) G(x - y, t).  Converges to phi(x) as t -> 0+ for smooth phi."""
    if phi.region != "sigma2":
        raise DimensionMismatch("cap_potential needs a density on sigma2")
    x, t = _as_xt(target)
    return _cap_values(mesh, A, [phi], x, t, False, _plan(mesh, A, x, t, False))[0]


def cap_potential_star(mesh, A, phi, target):
    """Top-cap potential with the reversed kernel: integral over Omega of
    phi(y) G(y - x, T - s); converges to phi(x) as s -> T-."""
    if phi.region != "sigma1":
        raise DimensionMismatch("cap_potential_star needs a density on sigma1")
    x, t = _as_xt(target)
    return _cap_values(mesh, A, [phi], x, t, True, _plan(mesh, A, x, t, True))[0]


# ---------------------------------------------------------------------------
# identities


class ConstantField:
    """u = 1, caloric for H and H*.  Its conormal derivative vanishes, so
    ``conormal`` is None and its layer representation has no single layer."""

    conormal = None

    def value(self, points, times):
        return np.ones(np.atleast_2d(points).shape[0])


def representation_at(mesh, A, densities, target, star=False, cap_rule=None, factors=None):
    """Layer representation D[u] - S[f] + C[u] at one target, for each
    (trace, flux, cap) density triple from ``representation_values``; flux
    None stands for zero flux and adds no single layer.

    All lateral densities share one lateral kernel: near the wall on the graded rule in the
    nodal basis (each density then needs a generator), else in ``factors``, the traces' and
    fluxes' ``_time_factors`` (built here if None).  All cap densities share one cap kernel, on
    ``cap_rule`` if given.  Raises TargetOnBoundary for a boundary target.  Public (not
    exported) so that a traced run attributes the per-target work to this layer.
    """
    x, t = _as_xt(target)
    plan = _plan(mesh, A, x, t, star)
    if plan.kind == "boundary":
        raise TargetOnBoundary("the layer representation needs an off-boundary target")
    kernel, graded = _target_kernel(mesh, A, x, t, star, plan)
    caps = _cap_values(mesh, A, [cap for _, _, cap in densities], x, t, star, plan, cap_rule)
    if graded is not None or factors is None:
        factors = [_time_factors(mesh, [d[k] for d in densities if d[k] is not None], graded)
                   for k in (0, 1)]  # the traces, then the fluxes
    (trace_basis, traces), (flux_basis, fluxes) = factors
    doubles = kernel.contract("double", traces, basis=trace_basis)
    # a zero single layer leaves D - S = D bit for bit, and needs no contraction
    singles = iter(kernel.contract("single", fluxes, basis=flux_basis))
    return [d - (0.0 if flux is None else next(singles)) + c
            for d, (_, flux, _), c in zip(doubles, densities, caps)]


def representation_values(mesh, A, fields, which="H"):
    """Layer representation of each caloric field in ``fields``, as a
    function of the target that returns one value per field.

    which='H': double layer of u minus single layer of du/d(conormal) plus
    the bottom-cap potential of u(., 0); this equals u at interior targets
    and 0 at exterior targets (target time inside (0, T), where the absent
    top-cap term vanishes).  which='H*' mirrors this with the adjoint
    operators and the top cap.  A field has ``value(points, times)`` and
    ``conormal(points, times, normals)``, or ``conormal = None`` for zero
    flux (``ConstantField``).  The trace, flux and cap-trace densities (DegenerateData if
    not finite), their time factors and cap rule are built once, here; the returned callable
    holds them and no other state, and evaluates them all at a target through
    ``representation_at``: one contraction per kernel kind, then one dot product per density.
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
    factors = [_time_factors(mesh, [d[k] for d in densities if d[k] is not None]) for k in (0, 1)]
    return functools.partial(representation_at, mesh, A, densities, star=star, factors=factors,
                             cap_rule=_cap_rule(mesh, A, [cap for _, _, cap in densities]))


def representation_discrepancy(u_field, target, value, kind):
    """How far a layer representation ``value`` at ``target`` is from what
    it represents: |value - u| where the target's location ``kind`` (that of
    ``CylinderMesh.locate``) is "interior", |value| elsewhere."""
    x, t = _as_xt(target)
    if kind == "interior":
        return abs(value - float(u_field.value(x[None, :], np.array([t]))[0]))
    return abs(value)


def elliptic_gauss_identity(cs, A, x, rule=None):
    """Surface integral of minus the elliptic conormal kernel over the
    cross-section boundary (n >= 3).

    Equals 1 for x inside, 0 outside, and 1/2 on the surface, where the
    weakly singular integrand is handled by a polar rule centred at x; off it
    by the sphere rule ``rule`` of ``elliptic_gauss_values``, or a new one.
    """
    if rule is None:
        return elliptic_gauss_values(cs, A)(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    if abs(cs.radial_gap(x)) <= 1e-9 * cs.radius_extremes()[1]:
        # on the surface: Gauss in the polar angle gam about x/|x|
        gam, wg = gauss_legendre(_SURFACE_POLAR, 0.0, math.pi)
        sin = np.sin(gam)
        dirs, sphere_w = polar_rule(x / np.linalg.norm(x), (np.cos(gam), sin, wg * sin),
                                    _SURFACE_AZIMUTH)
        pts, jac, inward = cs.surface_frame(dirs)
        return float(np.sum(sphere_w * jac * -elliptic_conormal_kernel(A, x, pts, inward)))
    terms, weights, inward, nu_y = rule
    q = shell_qform(A, x, terms, np.ones(1))[0]  # q(x - y) at s = 1: one gemv
    return float(np.sum(weights * (inward @ x - nu_y) / q ** (A.n / 2.0)))


def elliptic_gauss_values(cs, A):
    """``elliptic_gauss_identity`` on (cs, A) as a function of x, like ``representation_values``:
    the off-surface rule is built here, per call, as the ``shell_terms`` rows of its points y,
    the weights sphere_w jac / (omega sqrt|A|), the inward normals nu and <nu, y>."""
    if cs.n < 3:
        raise DimensionTooSmall("the surface identity needs n >= 3")
    if cs.n != A.n:
        raise DimensionMismatch("cross-section and operator dimensions differ")
    dirs, sphere_w = sphere_rule(_SURFACE_AZIMUTH)
    pts, jac, inward = cs.surface_frame(dirs)
    weights = sphere_w * jac / (unit_sphere_area(A.n) * math.sqrt(A.det))
    rule = (shell_terms(A, pts), weights, inward, np.einsum("ij,ij->i", inward, pts))
    return functools.partial(elliptic_gauss_identity, cs, A, rule=rule)


# ---------------------------------------------------------------------------
# jump probes


def jump_probe(mesh, A, phi, node_index, kind="double"):
    """Approach a lateral node from both sides and extrapolate the limits.

    Offsets are h0 * 2^-k, k = 5..8, along the interior normal and against it,
    with h0 = 0.05 times the domain diameter: 8 kernels, whose 4 values a side
    (held in the report with the 4 offsets) Richardson extrapolates; one that
    crosses the far wall raises OffsetTooLarge.  The two-sided difference of
    the limits estimates the density jump: +phi for the double layer, -phi for
    the conormal derivative of the single layer.  Nodes with times within 10%
    of the corners are rejected, and so is n != 2: there is no graded rule
    toward a 3-D wall yet, and the mesh rule misses these limits.

    A tuple of kinds gives a tuple of reports from one ladder.  Its offsets
    share one graded rule, centred on the node (the foot of every offset) and
    deep enough for the smallest offset, one time grid and the density on it;
    each sums only the grid columns where its own decay is above exp(-45),
    and the kinds, of one exponent, share that sum.  Refusals precede sampling.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if not kinds or any(name not in _JUMP_KINDS for name in kinds):
        raise ValueError("kind must be 'double', 'conormal_single' or a non-empty tuple of them")
    if mesh.cs.n != 2:
        raise DimensionMismatch("jump probes need a planar cross-section (n = 2)")
    if phi.generator is None:
        raise ValueError("jump probes need a density with a closed-form generator")
    b, k = mesh.lateral_index(node_index)
    t0 = float(mesh.tnodes[k])
    if not (0.1 * mesh.T < t0 < 0.9 * mesh.T):
        raise CornerTooClose(f"node time {t0} within 10% of the cylinder corners")
    x0, nu = mesh.bpoints[b], mesh.bnormals[b]

    offsets = _JUMP_H0_FACTOR * mesh.diameter * 0.5 ** np.asarray(_JUMP_RUNGS)

    # one rule at every level keeps the h-expansion of the extrapolation smooth
    graded = _near_boundary_rule(mesh, x0, _graded_depth(mesh.cs, offsets[-1]))
    kernels = [_LateralKernel(mesh, A, mesh.offset_point(node_index, h)[0], t0, False, graded)
               for h in np.concatenate([offsets, -offsets])]
    grid = _TimeGrid(mesh, A, t0, False, min(kernel.u0min for kernel in kernels))
    on_grid = _samples(mesh, phi, graded) @ grid.interp
    buffer = np.empty(on_grid.size)  # holds each offset's profile in turn
    lateral = tuple(_JUMP_KINDS[name] for name in kinds)  # one exponent, so one time sum
    values = [kernel.on(grid, buffer).apply(lateral, on_grid, nu) for kernel in kernels]

    phi0 = float(np.asarray(phi.generator(x0[None, :], np.array([t0]), nu[None, :]))[0])
    reports = []
    for name, column in zip(kinds, np.array(values).T):
        vin, vex = np.split(column, 2)
        li, le = richardson(vin), richardson(vex)
        reports.append(JumpProbeReport(name, int(node_index), x0.copy(), t0, offsets, vin, vex,
                                       li, le, li - le, phi0 if name == "double" else -phi0))
    return reports[0] if isinstance(kind, str) else tuple(reports)
