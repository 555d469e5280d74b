"""Cross-sections, cylinder meshes, and point location.

Every supported cross-section is star-shaped about the origin and described
by a radius function on the unit circle (n = 2) or unit sphere (n = 3):

    boundary = { rho(u) * u : |u| = 1 }

which gives one set of formulas for caps and point location, and one surface
frame, ``CrossSection.surface_frame`` (points, surface measure, inward
normals), over unit directions for both dimensions: a kind supplies only rho
and its tangential gradient.  Every rule on the circle or sphere comes from
``quadrature`` as unit directions and reaches the surface through it.  The
lateral boundary of Omega x (0, T) is meshed with a periodic trapezoid rule
in angle (n = 2) or a Gauss x trapezoid product on the sphere (n = 3),
tensored with Gauss-Legendre in time; caps use Gauss in the scaled radius
times the same angular rules.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidResolution, OffsetTooLarge
from .core import _as_xt
from .quadrature import gauss_legendre, periodic_trapezoid, sphere_rule

_BOUNDARY_TOL = 1e-12


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
            return 1.0 / np.sqrt(np.sum((dirs / self._axes()) ** 2, axis=-1))
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

    def _tangential_gradient(self, dirs, rho):
        """Tangential gradient of rho at unit directions dirs (..., n)."""
        if self.kind == "star":  # rho'(phi) along the circle tangent
            that = np.stack([-dirs[..., 1], dirs[..., 0]], axis=-1)
            phi = np.arctan2(dirs[..., 1], dirs[..., 0])
            return self._star_drho(phi)[..., None] * that
        # rho = g^(-1/2): ambient gradient, then its tangential part
        grad = -(rho**3)[..., None] * dirs / self._axes() ** 2
        return grad - np.sum(grad * dirs, axis=-1)[..., None] * dirs

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

    # -- surface frame -----------------------------------------------------

    def surface_frame(self, dirs):
        """(points, jacobian wrt the unit circle / sphere measure, inward
        normals) for unit directions dirs of shape (..., n).

        The outward normal is (rho u - grad_s rho) normalized, with grad_s
        the tangential gradient, and the jacobian rho^(n-2) |rho u - grad_s rho|.
        """
        dirs = np.asarray(dirs, dtype=float)
        if dirs.shape[-1] != self.n:
            raise DimensionMismatch(f"{dirs.shape[-1]}d directions on a {self.n}d cross-section")
        rho = self.radius(dirs)
        points = rho[..., None] * dirs
        if self.kind in ("disk", "ball"):
            return points, rho ** (self.n - 1), -dirs
        raw = points - self._tangential_gradient(dirs, rho)
        norm = np.linalg.norm(raw, axis=-1)
        return points, rho ** (self.n - 2) * norm, -(raw / norm[..., None])


@dataclass
class Location:
    """A space-time point measured once against the closed cylinder: its
    classification, the radial gap of x and the distance from x to the
    nearest lateral mesh node (``CylinderMesh.locate``)."""

    kind: str  # 'interior' | 'exterior' | 'boundary'
    region: str | None  # 'sigma1' | 'sigma2' | 'sigma3' for boundary points
    gap: float
    distance: float


@dataclass
class CylinderMesh:
    """Quadrature mesh for Omega x (0, T).

    sigma1 is the top cap (t = T), sigma2 the bottom cap (t = 0), sigma3 the lateral
    boundary.  Lateral nodes are the tensor product of the boundary rule and the time rule,
    flattened boundary-major, and cap point j * n_boundary + b is ``cap_fractions[j] *
    bpoints[b]``; weights carry the full surface measure so potentials are plain weighted sums.
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
    cap_fractions: np.ndarray = field(repr=False, default=None)

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
        """flat lateral index -> (boundary index, time index); ValueError for
        anything but an integer in [0, n_lateral)."""
        if not isinstance(flat, numbers.Integral) or not 0 <= flat < self.n_lateral:
            raise ValueError(f"lateral index {flat!r} is not an integer in [0, {self.n_lateral})")
        k = self.tnodes.shape[0]
        return flat // k, flat % k

    def region_nodes(self, region):
        """(points, times, weights) for one boundary region."""
        if region == "sigma3":
            return self.lateral_points(), self.lateral_times(), self.lateral_weights()
        if region in ("sigma1", "sigma2"):
            times = np.full(self.cap_points.shape[0], self.T if region == "sigma1" else 0.0)
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
        """Euclidean distance from x to the nearest lateral mesh node."""
        d = np.linalg.norm(self.bpoints - np.asarray(x, dtype=float)[None, :], axis=1)
        return float(d.min())

    def locate(self, point):
        x, t = _as_xt(point)
        gap = self.cs.radial_gap(x)
        return Location(*self._classify(gap, t), gap, self.distance_to_wall(x))

    def _classify(self, gap, t):
        """(kind, region) of a point with radial gap ``gap`` at time t."""
        tol = _BOUNDARY_TOL
        if t < -tol or t > self.T + tol or gap > tol:
            return "exterior", None
        if abs(gap) <= tol:
            return "boundary", "sigma3"
        # strictly inside the cross-section
        if abs(t) <= tol:
            return "boundary", "sigma2"
        if abs(t - self.T) <= tol:
            return "boundary", "sigma1"
        return "interior", None

    def offset_point(self, lateral_flat_index, h):
        """Lateral node moved h along its inward unit normal (same time), as
        an (x, t) pair.

        h > 0 must land strictly inside, h < 0 strictly outside; anything
        else (h = 0, crossing the far wall, |h| beyond the diameter or NaN)
        raises OffsetTooLarge.  The point is classified by its radial gap
        alone: no wall distance is measured.
        """
        b, k = self.lateral_index(lateral_flat_index)
        if not 0.0 < abs(h) <= self.diameter:
            raise OffsetTooLarge(f"offset {h} is zero or not within the domain diameter")
        x = self.bpoints[b] + float(h) * self.bnormals[b]
        t = float(self.tnodes[k])
        kind, _ = self._classify(self.cs.radial_gap(x), t)
        if h > 0 and kind != "interior":
            raise OffsetTooLarge(f"inward offset {h} leaves the cylinder ({kind})")
        if h < 0 and kind != "exterior":
            raise OffsetTooLarge(f"outward offset {h} fails to leave the cylinder ({kind})")
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
    else:
        dirs, wdirs = sphere_rule(m_angular)
    mesh.bpoints, jac, mesh.bnormals = cs.surface_frame(dirs)
    mesh.bweights = wdirs * jac
    # cap rule: radial Gauss x angular rule, jacobian s^(n-1) rho^n
    s, ws = gauss_legendre(m_radial, 0.0, 1.0)
    rho = cs.radius(dirs)
    cap_w = ws[:, None] * s[:, None] ** (cs.n - 1) * (rho**cs.n)[None, :] * wdirs[None, :]
    mesh.cap_points = (s[:, None, None] * mesh.bpoints[None, :, :]).reshape(-1, cs.n)
    mesh.cap_weights = cap_w.reshape(-1)
    mesh.cap_fractions = s

    mesh.tnodes, mesh.tweights = gauss_legendre(m_time, 0.0, T)
    return mesh
