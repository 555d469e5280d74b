"""Operator data and pointwise kernels.

The parabolic operators are H = E - d/dt and its adjoint H* = E + d/dt,
where E = sum_{h,k} a_hk d^2/dx_h dx_k and A = {a_hk} is symmetric positive
definite.  This module holds the matrix bookkeeping plus the fundamental
solution (also shell by shell, s_j p_b, on a cap rule), its conormal kernels,
and the elliptic kernel of the Gauss-type surface identity.  A target is a
plain (x, t) pair; ``_as_xt`` normalises it.
"""

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionTooSmall, NotPositiveDefinite, NotSymmetric
from .quadrature import unit_sphere_area

# exponents are clipped here: the kernel saturates at exp(-700) ~ 1e-304
_LOG_FLOOR = -700.0
# keep values finite near the (0, 0+) blow-up of the kernel
_LOG_CEIL = 700.0

_SYMMETRY_TOL = 1e-14


class CoefficientMatrix:
    """Validated SPD coefficient matrix with cached factorizations.

    Construction goes through :func:`make_coefficients`; instances are
    treated as immutable after that.
    """

    def __init__(self, entries):
        raw = np.asarray(entries, dtype=float)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise NotSymmetric("coefficient matrix must be square")
        if not np.all(np.isfinite(raw)):
            raise NotSymmetric("coefficient matrix entries must be finite")
        if np.max(np.abs(raw - raw.T)) > _SYMMETRY_TOL:
            raise NotSymmetric("coefficient matrix is not symmetric within 1e-14")
        a = 0.5 * (raw + raw.T)  # exact symmetry as stored
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("coefficient matrix is not positive definite") from None
        if np.min(np.diag(chol)) <= 0.0:
            raise NotPositiveDefinite("coefficient matrix has a non-positive pivot")
        self.n = a.shape[0]
        self.a = a
        self.chol = chol
        self.det = float(np.prod(np.diag(chol)) ** 2)
        self.inv = np.linalg.inv(a)
        self.eig_max = float(np.linalg.eigvalsh(a)[-1])
        self.a.setflags(write=False)
        self.chol.setflags(write=False)
        self.inv.setflags(write=False)

    def qform_inv(self, z):
        """<A^-1 z, z> over the last axis of z: one product z A^-1, one row-wise dot with z."""
        return np.einsum("...i,...i->...", z @ self.inv, z)

    @cached_property
    def entries_exact(self):
        """Entries snapped to exact rationals (floats are dyadic, so exact);
        built on first access and kept, since the matrix is immutable."""
        return tuple(tuple(Fraction(float(v)) for v in row) for row in self.a)

    def __repr__(self):
        return f"CoefficientMatrix(n={self.n}, a={self.a.tolist()})"


def make_coefficients(n, entries):
    """Build a CoefficientMatrix of size n, validating symmetry and positivity."""
    a = np.asarray(entries, dtype=float)
    if a.shape != (n, n):
        raise NotSymmetric(f"expected a {n}x{n} matrix, got shape {a.shape}")
    return CoefficientMatrix(a)


def _as_xt(point):
    """(x, t) of a target pair, as a flat float array and a float; raises
    ValueError naming a non-finite x or t."""
    x, t = point
    x, t = np.asarray(x, dtype=float).reshape(-1), float(t)
    if not np.isfinite(t):
        raise ValueError(f"target time t = {t} is not finite")
    if not np.isfinite(x).all():
        raise ValueError(f"target point x = {x.tolist()} is not finite")
    return x, t


def fundamental_solution(A, z, tau):
    """G(z, tau) = (4 pi tau)^(-n/2) |A|^(-1/2) exp(-<A^-1 z, z>/(4 tau)).

    Zero for tau <= 0 (causality).  Broadcasts over leading axes of z / tau;
    computed in log space so deep tails saturate at 1e-304 without warnings.
    """
    return _kernel_of_q(A, A.qform_inv(np.asarray(z, dtype=float)), np.asarray(tau, dtype=float))


def shell_terms(A, points):
    """Rows q(p) = <A^-1 p, p> and A^-1 p at points p: the (A, points) half of the shell kernel."""
    ainv_p = A.inv @ points.T
    return np.vstack([np.einsum("ib,ib->b", ainv_p, points.T), ainv_p])


def shell_qform(A, x, terms, fractions):
    """q(x - s_j p_b) as a (fractions, points) array for ``terms = shell_terms(A, p)``, from
    q(x - s p) = q(x) - 2 s <A^-1 p, x> + s^2 q(p): one small product per target, which
    loses a few eps (|x| + |p|)^2 ||A^-1|| to cancellation."""
    lift = np.column_stack([fractions * fractions, np.multiply.outer(fractions, -2.0 * x)])
    q = np.matmul(lift[:, None, :], terms)[:, 0]  # a gemv per shell: a gemm takes more memory
    q += x @ A.inv @ x
    return q


def shell_fundamental_solution(A, x, terms, fractions, tau):
    """G(x - s_j p_b, tau) from ``shell_qform``, off by that over 4 tau relative to its peak."""
    return _kernel_of_q(A, shell_qform(A, x, terms, fractions), tau)


def _kernel_of_q(A, q, tau):
    """G from q = <A^-1 z, z>: the one normalisation, causal zero and log clamp of G."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logv = np.asarray(q / (4.0 * tau))
        np.subtract((-0.5 * A.n) * np.log(4.0 * np.pi * tau) - 0.5 * np.log(A.det), logv, out=logv)
        np.copyto(logv, -np.inf, where=np.isnan(logv))
        np.exp(np.clip(logv, _LOG_FLOOR, _LOG_CEIL, out=logv), out=logv)
        logv *= tau > 0.0  # the causal zero; exp of a clipped exponent is finite
    return float(logv) if logv.ndim == 0 else logv


def conormal_kernel_source(A, x, y, nu_y, tau):
    """d/d(conormal at the source y) of G(x - y, t - s).

    With the conormal (A nu, 0) and nu the interior unit normal this reduces
    to <nu(y), x - y> / (2 tau) * G(x - y, tau); the matrix cancels against
    its inverse.  Zero for tau <= 0 and for tangential displacements.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu_y = np.asarray(nu_y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    z = x - y
    fac = np.einsum("...i,...i->...", nu_y, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = fac / (2.0 * tau)
        half = np.where(np.isfinite(half), half, 0.0)
    g = fundamental_solution(A, z, tau)
    out = np.where((tau > 0.0) & (fac != 0.0), half * g, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def conormal_kernel_target(A, x, y, nu_fixed, tau):
    """Derivative of G(x - y, tau) in x along the frozen conormal (A nu_fixed, 0).

    Equals -<nu_fixed, x - y> / (2 tau) * G(x - y, tau); used for the conormal
    derivative of the single layer taken at a fixed boundary point.
    """
    return -conormal_kernel_source(A, x, y, nu_fixed, tau)


def elliptic_fundamental(A, x, y):
    """Time-independent kernel s(x, y) for n >= 3.

    s(x, y) = <A^-1 (x-y), (x-y)>^((2-n)/2) / ((2-n) omega_n |A|^(1/2)).
    For A = I, n = 3 this is -1 / (4 pi |x-y|).
    """
    if A.n < 3:
        raise DimensionTooSmall("elliptic kernel requires n >= 3")
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    q = A.qform_inv(z)
    omega = unit_sphere_area(A.n)
    out = q ** ((2.0 - A.n) / 2.0) / ((2.0 - A.n) * omega * np.sqrt(A.det))
    if np.ndim(out) == 0:
        return float(out)
    return out


def elliptic_conormal_kernel(A, x, y, nu_y):
    """d s(x, y) / d(conormal at y) in closed form.

    Equals -<nu(y), x - y> / (omega_n |A|^(1/2) <A^-1(x-y), (x-y)>^(n/2)).
    """
    if A.n < 3:
        raise DimensionTooSmall("elliptic kernel requires n >= 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu_y = np.asarray(nu_y, dtype=float)
    z = x - y
    q = A.qform_inv(z)
    omega = unit_sphere_area(A.n)
    num = np.einsum("...i,...i->...", nu_y, z)
    out = -num / (omega * np.sqrt(A.det) * q ** (A.n / 2.0))
    if np.ndim(out) == 0:
        return float(out)
    return out
