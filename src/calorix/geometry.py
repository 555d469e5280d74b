"""Cross-sections, cylinder meshes, and point location.

Every supported cross-section is star-shaped about the origin and described
by a radius function on the unit circle (n = 2) or unit sphere (n = 3):

    boundary = { rho(u) * u : |u| = 1 }

which gives one set of formulas for boundary points, normals, surface
measure, caps, and point location.  The lateral boundary of the cylinder
Omega x (0, T) is meshed with a periodic trapezoid rule in angle (n = 2) or
a Gauss x trapezoid product on the sphere (n = 3), tensored with
Gauss-Legendre in time; caps use Gauss in the scaled radius times the same
angular rules.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidResolution, OffsetTooLarge
from .core import _as_xt
from .quadrature import gauss_legendre, periodic_trapezoid, sphere_rule

_BOUNDARY_TOL = 1e-12
_POLISH_STEPS, _POLISH_DELTA = 3, 1e-5  # nearest_parameter: steps, stencil half-width


class CrossSection:
    """Star-shaped cross-section with an analytic radius function."""

    def __init__(self, kind, n, params):
        self.kind = kind
        self.n = n
        self.params = dict(params)
        self._star_extremes = None

    # -- factories ---------------------------------------------------------

    @classmethod
    def disk(cls, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("disk", 2, {"radius": float(radius)})

    @classmethod
    def ellipse(cls, a, b):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        return cls("ellipse", 2, {"a": float(a), "b": float(b)})

    @classmethod
    def star(cls, r0, cos_coeffs=(), sin_coeffs=()):
        cos_coeffs = tuple(float(c) for c in cos_coeffs)
        sin_coeffs = tuple(float(c) for c in sin_coeffs)
        slack = r0 - sum(abs(c) for c in cos_coeffs) - sum(abs(c) for c in sin_coeffs)
        if slack <= 0:
            raise ValueError("trigonometric perturbation must keep the radius positive")
        return cls("star", 2, {"r0": float(r0), "cos": cos_coeffs, "sin": sin_coeffs})

    @classmethod
    def ball(cls, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("ball", 3, {"radius": float(radius)})

    @classmethod
    def ellipsoid(cls, a, b, c):
        if min(a, b, c) <= 0:
            raise ValueError("semi-axes must be positive")
        return cls("ellipsoid", 3, {"a": float(a), "b": float(b), "c": float(c)})

    # -- radius function on the unit circle / sphere -----------------------

    def _axes(self):
        p = self.params
        if self.kind == "ellipse":
            return np.array([p["a"], p["b"]])
        if self.kind == "ellipsoid":
            return np.array([p["a"], p["b"], p["c"]])
        raise AssertionError(self.kind)

    def radius(self, dirs):
        """rho(u) for unit directions u with shape (..., n)."""
        dirs = np.asarray(dirs, dtype=float)
        if self.kind in ("disk", "ball"):
            return np.full(dirs.shape[:-1], self.params["radius"])
        if self.kind in ("ellipse", "ellipsoid"):
            axes = self._axes()
            g = np.sum((dirs / axes) ** 2, axis=-1)
            return 1.0 / np.sqrt(g)
        # star: radius as a trigonometric polynomial of the polar angle
        phi = np.arctan2(dirs[..., 1], dirs[..., 0])
        return self._star_rho(phi)

    def _star_rho(self, phi):
        p = self.params
        rho = np.full(np.shape(phi), p["r0"])
        for k, c in enumerate(p["cos"], start=1):
            rho = rho + c * np.cos(k * phi)
        for k, c in enumerate(p["sin"], start=1):
            rho = rho + c * np.sin(k * phi)
        return rho

    def _star_drho(self, phi):
        p = self.params
        d = np.zeros(np.shape(phi))
        for k, c in enumerate(p["cos"], start=1):
            d = d - c * k * np.sin(k * phi)
        for k, c in enumerate(p["sin"], start=1):
            d = d + c * k * np.cos(k * phi)
        return d

    def radius_extremes(self):
        if self.kind in ("disk", "ball"):
            r = self.params["radius"]
            return r, r
        if self.kind in ("ellipse", "ellipsoid"):
            axes = self._axes()
            return float(axes.min()), float(axes.max())
        if self._star_extremes is None:  # 4096 angles, sampled once
            rho = self._star_rho(np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
            self._star_extremes = float(rho.min()), float(rho.max())
        return self._star_extremes

    def radial_gap(self, x):
        """|x| - rho(x/|x|); negative inside the cross-section."""
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return -self.radius_extremes()[0]
        return r - float(self.radius(x / r))

    # -- boundary frames ---------------------------------------------------

    def boundary_frame(self, phi):
        """(points, jacobian, inward normals) over polar angles phi (n = 2).

        jacobian is d(arc length)/d(phi) = sqrt(rho^2 + rho'^2); the outward
        normal is (rho u - rho' that) normalized, with that the unit tangent
        of the circle.
        """
        if self.n != 2:
            raise DimensionMismatch("boundary_frame is the planar parametrization")
        phi = np.asarray(phi, dtype=float)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        that = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        if self.kind == "disk":
            rho = np.full(phi.shape, self.params["radius"])
            drho = np.zeros(phi.shape)
        elif self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            w = (b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2
            rho = a * b / np.sqrt(w)
            drho = -a * b * (a**2 - b**2) * np.sin(2.0 * phi) / (2.0 * w**1.5)
        else:
            rho = self._star_rho(phi)
            drho = self._star_drho(phi)
        points = rho[..., None] * u
        jac = np.sqrt(rho**2 + drho**2)
        outward = (rho[..., None] * u - drho[..., None] * that) / jac[..., None]
        return points, jac, -outward

    def nearest_parameter(self, x, coarse):
        """(phi, distance) of the boundary point nearest to x (n = 2): Halley
        steps on g(phi) = <P(phi) - x, P'(phi)> from the nearest of ``coarse``
        equispaced parameters, staying within one spacing of it; each step is
        one ``boundary_frame`` call on a 3-point stencil.  The distance, taken
        at the last stencil centre, is off by the square of the last step."""
        phis, _ = periodic_trapezoid(coarse)
        pts, _, _ = self.boundary_frame(phis)
        i0 = int(np.argmin(np.sum((pts - x[None, :]) ** 2, axis=1)))
        lo, hi = phis[i0] - 2.0 * math.pi / coarse, phis[i0] + 2.0 * math.pi / coarse
        phi, h = phis[i0], _POLISH_DELTA
        for _ in range(_POLISH_STEPS):
            p, jac, inward = self.boundary_frame(phi + np.array([-h, 0.0, h]))
            gap = p - x[None, :]
            g = jac * (gap[:, 0] * inward[:, 1] - gap[:, 1] * inward[:, 0])
            g1, g2 = (g[2] - g[0]) / (2.0 * h), (g[2] - 2.0 * g[1] + g[0]) / h**2
            step = -g[1] * g1 / (g1 * g1 - 0.5 * g[1] * g2)
            phi = min(max(phi + step, lo), hi)
            if abs(step) <= 1e-13:
                break
        return phi, float(np.linalg.norm(gap[1]))

    def sphere_frame(self, dirs):
        """(points, area jacobian wrt the unit-sphere measure, inward normals)
        for unit directions dirs of shape (..., 3)."""
        if self.n != 3:
            raise DimensionMismatch("sphere_frame requires a 3d cross-section")
        dirs = np.asarray(dirs, dtype=float)
        rho = self.radius(dirs)
        points = rho[..., None] * dirs
        if self.kind == "ball":
            jac = rho**2
            outward = dirs.copy()
        else:
            axes = self._axes()
            # rho = g^(-1/2): ambient gradient, then its tangential part
            grad = -(rho**3)[..., None] * dirs / axes**2
            radial = np.sum(grad * dirs, axis=-1)
            grad_s = grad - radial[..., None] * dirs
            raw = rho[..., None] * dirs - grad_s
            norm = np.linalg.norm(raw, axis=-1)
            jac = rho * norm
            outward = raw / norm[..., None]
        return points, jac, -outward


@dataclass
class Location:
    """Classification of a space-time point against the closed cylinder."""

    kind: str  # 'interior' | 'exterior' | 'boundary'
    region: str | None = None  # 'sigma1' | 'sigma2' | 'sigma3' for boundary points


@dataclass
class WallFrame:
    """A point's location, the radial gap of x and the distance from x to the
    nearest lateral mesh node (``CylinderMesh.wall_frame``), measured once."""

    location: Location
    gap: float
    distance: float


@dataclass
class CylinderMesh:
    """Quadrature mesh for Omega x (0, T).

    sigma1 is the top cap (t = T), sigma2 the bottom cap (t = 0), sigma3 the
    lateral boundary.  Lateral nodes are the tensor product of the boundary
    rule and the time rule, flattened boundary-major; weights carry the full
    surface measure so potentials are plain weighted sums.
    """

    cs: CrossSection
    A: object
    T: float
    m_angular: int
    m_time: int
    m_radial: int

    bpoints: np.ndarray = field(repr=False, default=None)
    bnormals: np.ndarray = field(repr=False, default=None)
    bweights: np.ndarray = field(repr=False, default=None)
    tnodes: np.ndarray = field(repr=False, default=None)
    tweights: np.ndarray = field(repr=False, default=None)
    cap_points: np.ndarray = field(repr=False, default=None)
    cap_weights: np.ndarray = field(repr=False, default=None)

    @property
    def n(self):
        return self.cs.n

    @property
    def n_boundary(self):
        return self.bpoints.shape[0]

    @property
    def n_lateral(self):
        return self.bpoints.shape[0] * self.tnodes.shape[0]

    # flattened lateral views (boundary-major)

    def lateral_points(self):
        return np.repeat(self.bpoints, self.tnodes.shape[0], axis=0)

    def lateral_times(self):
        return np.tile(self.tnodes, self.bpoints.shape[0])

    def lateral_normals(self):
        return np.repeat(self.bnormals, self.tnodes.shape[0], axis=0)

    def lateral_weights(self):
        return (self.bweights[:, None] * self.tweights[None, :]).reshape(-1)

    def lateral_index(self, flat):
        """flat lateral index -> (boundary index, time index)."""
        k = self.tnodes.shape[0]
        return flat // k, flat % k

    def region_nodes(self, region):
        """(points, times, weights) for one boundary region."""
        if region == "sigma3":
            return self.lateral_points(), self.lateral_times(), self.lateral_weights()
        if region == "sigma2":
            times = np.zeros(self.cap_points.shape[0])
            return self.cap_points, times, self.cap_weights
        if region == "sigma1":
            times = np.full(self.cap_points.shape[0], self.T)
            return self.cap_points, times, self.cap_weights
        raise ValueError(f"unknown region {region!r}")

    # -- geometric summaries ----------------------------------------------

    @property
    def diameter(self):
        return 2.0 * self.cs.radius_extremes()[1]

    @property
    def boundary_spacing(self):
        """Representative spacing of the surface rule (threshold scale for
        near-boundary refinement)."""
        perimeter = float(np.sum(self.bweights))
        if self.cs.n == 2:
            return perimeter / self.m_angular
        return math.sqrt(perimeter / self.bpoints.shape[0])

    def fingerprint(self):
        payload = {
            "kind": self.cs.kind,
            "params": {k: v for k, v in sorted(self.cs.params.items())},
            "T": self.T,
            "m": [self.m_angular, self.m_time, self.m_radial],
            "a": self.A.a.tolist(),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    # -- point location ----------------------------------------------------

    def distance_to_wall(self, x):
        """Euclidean distance from x to the discretized lateral boundary."""
        d = np.linalg.norm(self.bpoints - np.asarray(x, dtype=float)[None, :], axis=1)
        return float(d.min())

    def wall_frame(self, point):
        x, t = _as_xt(point)
        gap = self.cs.radial_gap(x)
        return WallFrame(self._classify(gap, t), gap, self.distance_to_wall(x))

    def locate(self, point):
        x, t = _as_xt(point)
        return self._classify(self.cs.radial_gap(x), t)

    def _classify(self, gap, t):
        """Location of a point with radial gap ``gap`` at time t."""
        tol = _BOUNDARY_TOL
        if t < -tol or t > self.T + tol:
            return Location("exterior")
        if gap > tol:
            return Location("exterior")
        if abs(gap) <= tol:
            if -tol <= t <= self.T + tol:
                return Location("boundary", "sigma3")
            return Location("exterior")
        # strictly inside the cross-section
        if abs(t) <= tol:
            return Location("boundary", "sigma2")
        if abs(t - self.T) <= tol:
            return Location("boundary", "sigma1")
        return Location("interior")

    def offset_point(self, lateral_flat_index, h):
        """Lateral node moved h along its inward unit normal (same time), as
        an (x, t) pair.

        h > 0 must land strictly inside, h < 0 strictly outside; anything
        else (crossing the far wall, |h| beyond the diameter) raises
        OffsetTooLarge.
        """
        b, k = self.lateral_index(int(lateral_flat_index))
        if abs(h) > self.diameter:
            raise OffsetTooLarge(f"offset {h} exceeds the domain diameter")
        x = self.bpoints[b] + float(h) * self.bnormals[b]
        t = float(self.tnodes[k])
        loc = self.locate((x, t))
        if h > 0 and loc.kind != "interior":
            raise OffsetTooLarge(f"inward offset {h} leaves the cylinder ({loc.kind})")
        if h < 0 and loc.kind != "exterior":
            raise OffsetTooLarge(f"outward offset {h} fails to leave the cylinder ({loc.kind})")
        return x, t


def build_mesh(cs, A, T, m_angular, m_time, m_radial):
    """Assemble the cylinder quadrature mesh.

    Weight sums reproduce closed-form measures (perimeter * T, |Omega|)
    to near machine precision for disks and balls; smooth sections converge
    spectrally in the angular resolution.
    """
    if cs.n != A.n:
        raise DimensionMismatch(f"cross-section dimension {cs.n} != operator dimension {A.n}")
    if T <= 0:
        raise InvalidResolution("time horizon T must be positive")
    if min(m_angular, m_time, m_radial) < 2:
        raise InvalidResolution("all resolutions must be at least 2")

    mesh = CylinderMesh(cs=cs, A=A, T=float(T), m_angular=int(m_angular),
                        m_time=int(m_time), m_radial=int(m_radial))

    # the angular rule and its boundary frame are all that depends on n
    if cs.n == 2:
        phi, wdirs = periodic_trapezoid(m_angular)
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        mesh.bpoints, jac, mesh.bnormals = cs.boundary_frame(phi)
    else:
        dirs, wdirs = sphere_rule(m_angular)
        mesh.bpoints, jac, mesh.bnormals = cs.sphere_frame(dirs)
    mesh.bweights = wdirs * jac
    # cap rule: radial Gauss x angular rule, jacobian s^(n-1) rho^n
    s, ws = gauss_legendre(m_radial, 0.0, 1.0)
    rho = cs.radius(dirs)
    cap_pts = s[:, None, None] * (rho[None, :, None] * dirs[None, :, :])
    cap_w = ws[:, None] * s[:, None] ** (cs.n - 1) * (rho**cs.n)[None, :] * wdirs[None, :]
    mesh.cap_points = cap_pts.reshape(-1, cs.n)
    mesh.cap_weights = cap_w.reshape(-1)

    mesh.tnodes, mesh.tweights = gauss_legendre(m_time, 0.0, T)
    return mesh


def mesh_to_csv(mesh, path):
    """Dump all quadrature nodes as CSV (region, coords, time, normal, weight)."""
    n = mesh.n
    cols = (["region"] + [f"x{j + 1}" for j in range(n)] + ["t"]
            + [f"nu{j + 1}" for j in range(n)] + ["weight"])
    rows = []
    lp, lt, lw = mesh.region_nodes("sigma3")
    ln = mesh.lateral_normals()
    for i in range(lp.shape[0]):
        rows.append(["sigma3", *lp[i], lt[i], *ln[i], lw[i]])
    for region in ("sigma2", "sigma1"):
        cp, ct, cw = mesh.region_nodes(region)
        zero = np.zeros(n)
        for i in range(cp.shape[0]):
            rows.append([region, *cp[i], ct[i], *zero, cw[i]])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row) + "\n")
