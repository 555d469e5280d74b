"""Least-squares fitting of Dirichlet boundary data by caloric polynomials.

The approximant is a combination of exact polynomial solutions, so only the
boundary misfit is minimized; no volume discretization of the operator is
involved.  Fits use the quadrature-weighted discrete norm of the mesh, a
quadrature approximation to the L2 norm of the parabolic boundary.

Columns come from the float recurrence ``polynomials.basis_matrix``.  A
system is factored once per right-hand side: one QR of [node rows | rhs]
gives R, and the fit at any degree reads only the leading block of R
(nested least squares, Golub & Van Loan, Matrix Computations, ch. 5), so a
ladder of degrees shares one factorization.  R is built by row-block TSQR
(Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012) over
row groups that are orthogonal maps of the node rows; what a map leaves out
reaches only the rhs, as one row [0 ... 0 | norm], so R is unchanged.  Q^T,
Q from the QR of the sqrt(tweights)-scaled Legendre Vandermonde in t, maps
a wall node to keep = min(D // 2 + 1, m_time) time modes, mode k of degree
<= D - 2k in x.  On a conic or quadric, U (nested by degree: Vandermonde
with Arnoldi, Brubeck, Nakatsukasa & Trefethen, SIAM Review 63, 2021) maps
a cap shell to its dim(D) = 2D + 1 (n = 2) or (D + 1)^2 (n = 3) modes of
degree <= D, and time mode k to dim(D - 2k).  Elsewhere, U is the identity.
``assemble_system`` decides the maps once, one per row group, and the system
holds only the mapped rows, built from the basis at the boundary nodes, never
the node rows, and maps each rhs itself.
"""

import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import legvander

from .errors import DegenerateData, RegionMismatch
from .polynomials import basis_matrix, enumerate_basis
from .quadrature import gauss_legendre

# points per basis block in evaluate_solution: 8192 points x 455 columns
# (n=3, degree 12) is 30 MB
_EVAL_BLOCK = 8192
_QR_BLOCK = 1024  # rows per block in TrefftzSystem.triangular
_SLAB = 64  # columns per slab of the wall in assemble_system

_PARITY_REGIONS = {"v": ("sigma2", "sigma3"), "w": ("sigma1", "sigma3")}


def parity_regions(parity):
    """Dirichlet regions by parity: bottom cap + wall for the forward
    operator ('v'), top cap + wall for the adjoint ('w')."""
    try:
        return _PARITY_REGIONS[parity]
    except KeyError:
        raise RegionMismatch(f"parity must be 'v' or 'w', got {parity!r}") from None


class BoundaryData:
    """Dirichlet data sampled at the quadrature nodes of a parity's regions.

    generator: optional (points, times) -> values, needed to resample on a
    different mesh.  exact: optional field with .value(points, times) used for
    interior error reporting when the data is the trace of a known solution.
    """

    def __init__(self, parity, values, generator=None, exact=None, tag="data"):
        self.parity = parity
        self.values = dict(values)
        self.generator = generator
        self.exact = exact
        self.tag = tag
        expected = set(parity_regions(parity))
        if set(self.values) != expected:
            raise RegionMismatch(
                f"data regions {sorted(self.values)} do not match parity "
                f"{parity!r} regions {sorted(expected)}")
        for region, vals in self.values.items():
            arr = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise DegenerateData(f"non-finite data on {region}")
            self.values[region] = arr

    @classmethod
    def from_function(cls, mesh, parity, fn, exact=None, tag="closed-form"):
        vals = {}
        for region in parity_regions(parity):
            pts, ts, _ = mesh.region_nodes(region)
            vals[region] = np.asarray(fn(pts, ts), dtype=float)
        return cls(parity, vals, generator=fn, exact=exact, tag=tag)

    @classmethod
    def from_field(cls, mesh, parity, field, tag="field"):
        """Trace of a space-time field exposing .value(points, times)."""
        return cls.from_function(mesh, parity, field.value, exact=field, tag=tag)

    @classmethod
    def from_values(cls, mesh, parity, values, tag="samples"):
        """Data from a dict of each region to a flat 1-D sequence of
        numbers, one per node; anything else raises DegenerateData."""
        if not isinstance(values, dict):
            raise DegenerateData("values must map each region to its samples")
        out = {}
        for region in parity_regions(parity):
            pts, _, _ = mesh.region_nodes(region)
            try:
                arr = np.asarray(values.get(region))  # None when missing
            except ValueError:  # ragged nesting
                arr = np.asarray(None)
            if arr.ndim != 1 or arr.dtype.kind not in "iuf":
                raise DegenerateData(f"{region}: samples must be a flat list of numbers")
            if arr.shape[0] != pts.shape[0]:
                raise DegenerateData(
                    f"{region}: {arr.shape[0]} samples for {pts.shape[0]} nodes")
            out[region] = arr
        return cls(parity, out, generator=None, tag=tag)

    def concatenated(self):
        return np.concatenate(
            [self.values[r] for r in parity_regions(self.parity)])


class TrefftzSystem:
    """The rows the TSQR of the module docstring factors, in row groups:
    cap shells, then wall time modes; columns are caloric polynomials
    divided by their recorded scale.  The node weights and the maps form
    and map right-hand sides."""

    def __init__(self, matrix, alphas, scales, weights, parity, *, time_modes, cap_rows,
                 row_maps, mesh_fingerprint, a):
        self.matrix = matrix
        self.alphas = alphas
        self.scales = scales
        self.weights = weights
        self.parity = parity
        self.degree = max(sum(alpha) for alpha in alphas)
        self.time_modes = time_modes  # Q of the module docstring
        self.cap_rows = cap_rows  # the node rows of the cap; the wall's follow
        self.row_maps = row_maps  # U_cap, then U_wall's columns for each kept time mode
        self.mesh_fingerprint, self.a = mesh_fingerprint, a  # what it was assembled for
        self._factored = None  # (rhs, R) of the last triangular() call

    def triangular(self, rhs):
        """R of the QR factorization of [node rows | rhs], by the row-block
        TSQR of the module docstring over [matrix | mapped rhs], _QR_BLOCK
        rows at a time.  The result for the last rhs seen (compared by value)
        is kept, so a degree ladder factors once."""
        rhs = np.asarray(rhs, dtype=float)
        if self._factored is None or not np.array_equal(self._factored[0], rhs):
            held, (b, rest) = self.matrix, self._mapped_rhs(rhs)
            ncols = held.shape[1]
            buf = np.empty((ncols + 2 + min(_QR_BLOCK, len(held)), ncols + 1), order="F")
            top = 0  # the rows of the running R, kept at the top of buf
            if rest:  # the folded rest row, where it is not zero, goes first
                buf[0, :-1], buf[0, -1], top = 0.0, rest, 1
            for lo in range(0, len(held), _QR_BLOCK):
                end = top + len(held[lo:lo + _QR_BLOCK])
                buf[top:end, :-1], buf[top:end, -1] = held[lo:lo + _QR_BLOCK], b[lo:lo + _QR_BLOCK]
                r = np.linalg.qr(buf[:end], mode="r")
                buf[:len(r)], top = r, len(r)
                del r  # R lives on in buf, out of the way of the next block's QR
            self._factored = (rhs.copy(), buf[:top].copy())
        return self._factored[1]

    def _mapped_rhs(self, rhs):
        """The rhs of the held rows, by the row maps, and the norm of what
        they leave out."""
        q, maps, cap = self.time_modes, self.row_maps, self.cap_rows
        keep = len(maps) - 1
        wall = rhs[cap:].reshape(-1, len(q)) @ q
        groups = [(maps[0], b) for b in rhs[:cap].reshape(-1, len(wall))] + list(
            zip(maps[1:], wall[:, :keep].T))
        heads = [u.T @ b for u, b in groups]
        dropped = [np.linalg.norm(b - u @ h) for (u, b), h in zip(groups, heads)]
        return np.concatenate(heads), math.hypot(*dropped, np.linalg.norm(wall[:, keep:]))

    @property
    def sqrt_weights(self):
        return np.sqrt(self.weights)

    def columns_for_degree(self, degree):
        # graded-lex enumeration puts all lower degrees first, so a nested
        # subspace is a leading block of columns
        return sum(1 for a in self.alphas if sum(a) <= degree)


def _space_dim(n, d):  # of the polynomials of degree <= d on a conic (n = 2) or quadric (n = 3)
    return 2 * d + 1 if n == 2 else (d + 1) ** 2


def _space_modes(points, weights, degree):
    """U of the module docstring per weight set, stacked, or None unless the
    points show a quadric's dimensions under each: at every degree, kept
    singular values at least 1e-3 of the largest, dropped ones at most 1e-13."""
    n, (prev, lo), weights = points.shape[1], (0, 1), np.asarray(weights)
    if _space_dim(n, degree) >= len(points):
        return None
    u = np.empty(weights.shape + (_space_dim(n, degree),))
    u[..., 0] = np.sqrt(weights / np.sum(weights, axis=1, keepdims=True))
    for hi in (_space_dim(n, d) for d in range(1, degree + 1)):
        new = (points[:, :, None] * u[:, :, None, prev:lo]).reshape(len(u), len(points), -1)
        for _ in range(2):
            new -= u[..., :lo] @ (np.swapaxes(u[..., :lo], -1, -2) @ new)
        left, sing, _ = np.linalg.svd(new, full_matrices=False)
        sing /= sing[:, :1]
        if np.any(sing[:, hi - lo - 1] < 1e-3) or np.any(sing[:, hi - lo:] > 1e-13):
            return None
        u[..., lo:hi], prev, lo = left[..., :hi - lo], lo, hi
    return u


def _dirichlet_nodes(mesh, parity):
    """(points, times, weights) of the parity's regions, stacked in order."""
    nodes = [mesh.region_nodes(r) for r in parity_regions(parity)]
    return tuple(np.concatenate(parts) for parts in zip(*nodes))


def assemble_system(mesh, A, parity, degree):
    """The TSQR rows of the module docstring for |alpha| <= degree on the
    parity's Dirichlet regions, from the basis at the boundary nodes.

    They map the node rows sqrt(w_i) v_k(node_i) / s_k, with s_k = max(1,
    column 2-norm), a norm the maps keep; scales are recorded so coefficients
    can be mapped back to the raw basis.  The cap at t = 0 is one shell
    scaled, as v_alpha(s x, 0) = s^|alpha| v_alpha(x, 0); at t = T each shell
    is its own nodes.  The wall is the basis at keep Gauss times g (the time
    rule itself when keep = m_time): a wall column is of degree < keep in t,
    L(g)^-1 of its values there are its Legendre coefficients, and Q^T of its
    weighted node samples is the time modes' triangular factor times them.
    """
    pts, ts, wts = _dirichlet_nodes(mesh, parity)
    if not np.any(wts > 0.0):
        raise DegenerateData("all quadrature weights vanish")
    alphas, nb, m = enumerate_basis(A.n, degree), mesh.n_boundary, len(mesh.tnodes)
    keep, cap, shells = min(degree // 2 + 1, m), len(pts) - mesh.n_lateral, mesh.m_radial
    q, tri = np.linalg.qr(np.sqrt(mesh.tweights)[:, None]
                          * legvander(2.0 * mesh.tnodes / mesh.T - 1.0, m - 1))
    modes = _space_modes(mesh.bpoints, [mesh.cap_weights[:nb], mesh.bweights], degree)
    maps = [np.eye(nb)] * (keep + 1) if modes is None else [modes[0]] + [
        modes[1][:, :_space_dim(A.n, degree - 2 * k)] for k in range(keep)]
    g = gauss_legendre(keep, 0.0, mesh.T)[0]
    wq = tri[:keep, :keep] @ np.linalg.inv(legvander(2.0 * g / mesh.T - 1.0, keep - 1))
    first, lift = pts[:cap], np.ones((shells, 1, 1))  # the cap points evaluated; shell factors
    if parity == "v":  # shell j is c_j s_j^|alpha| times the section, c_j its weight ratio
        first, s = mesh.bpoints, mesh.cap_fractions[:, None, None]
        ratio = np.sqrt(wts[:cap].reshape(shells, nb).sum(axis=1) / wts[:nb].sum())
        lift = ratio[:, None, None] * s ** np.sum(alphas, axis=1)[:, None]
    cols = basis_matrix(A, alphas, parity,
                        np.concatenate([first, np.tile(mesh.bpoints, (keep, 1))]),
                        np.concatenate([ts[:len(first)], np.repeat(g, nb)])).T
    cols *= np.sqrt(np.concatenate([wts[:len(first)], np.tile(mesh.bweights, keep)]))
    dims = [maps[0].shape[1]] * shells + [u.shape[1] for u in maps[1:]]
    ends = np.cumsum(dims)
    held = np.empty((len(alphas), ends[-1]))  # the rows, transposed
    for j in range(shells):
        if j == 0 or parity == "w":  # at t = 0, one shell serves all
            head = cols[:, j * nb:(j + 1) * nb] @ maps[0]
        held[:, ends[j] - dims[j]:ends[j]] = head * lift[j]
    wall = cols[:, len(first):].reshape(len(alphas), keep, nb)  # wall points: times, then nodes
    for lo in range(0, len(alphas), _SLAB):
        slab = np.matmul(wq, wall[lo:lo + _SLAB])  # columns x time modes x nodes
        for k, (u, hi) in enumerate(zip(maps[1:], ends[shells:])):
            held[lo:lo + _SLAB, hi - u.shape[1]:hi] = slab[:, k] @ u
    # take norms 32 columns at a time: no full-size temporary
    norms = [np.linalg.norm(held[i:i + 32], axis=1) for i in range(0, len(held), 32)]
    scales = np.maximum(1.0, np.concatenate(norms))
    held /= scales[:, None]
    return TrefftzSystem(held.T, alphas, scales, wts, parity, time_modes=q, cap_rows=cap,
                         row_maps=maps, mesh_fingerprint=mesh.fingerprint(), a=A.a)


def _fields_dict(record, skip=()):
    """A record's fields by name, but those in ``skip``."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


@dataclass(eq=False)
class CaloricApproximant:
    """Result of one least-squares fit: coefficients of the scaled basis in
    graded-lex order plus diagnostics."""

    parity: str
    degree: int
    n: int
    alphas: list
    coefficients: np.ndarray
    column_scales: np.ndarray
    residual: float
    rank: int
    cond: float
    mesh_fingerprint: str

    def raw_coefficients(self):
        """Coefficients against the unscaled caloric polynomials."""
        return self.coefficients / self.column_scales

    def to_json_dict(self):
        return {**_fields_dict(self), "alphas": [list(a) for a in self.alphas],
                "coefficients": self.coefficients.tolist(),
                "column_scales": self.column_scales.tolist()}


def _svd_solve(matrix, rhs, rcond):
    u, sing, vt = np.linalg.svd(matrix, full_matrices=False)
    if sing[0] == 0.0:
        return np.zeros(matrix.shape[1]), 0, np.inf
    keep = sing >= rcond * sing[0]
    coeff = vt[keep].T @ ((u[:, keep].T @ rhs) / sing[keep])
    rank = int(np.count_nonzero(keep))
    cond = float(sing[0] / sing[keep][-1])
    return coeff, rank, cond


def _triangular_solve(block, rhs, rcond):
    """_svd_solve of a leading block of R, by back substitution when the
    block is square and no singular value falls below rcond * sing[0]."""
    sing = np.linalg.svd(block, compute_uv=False)
    if len(sing) < block.shape[1] or sing[-1] <= rcond * sing[0]:
        return _svd_solve(block, rhs, rcond)
    # partial pivoting swaps no row of a triangular matrix: LU is back substitution
    return np.linalg.solve(block, rhs), len(sing), float(sing[0] / sing[-1])


def _check_parity(data, parity):
    if data.parity != parity:
        raise RegionMismatch(
            f"data parity {data.parity!r} does not match solve parity {parity!r}")


def _check_degrees(degrees):
    if not degrees or not all(isinstance(d, numbers.Integral) and d >= 0 for d in degrees) \
            or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError(f"degrees must be strictly increasing non-negative integers: {degrees!r}")


def solve_dirichlet(mesh, A, parity, degree, data, rcond=1e-12, system=None):
    """Weighted least-squares fit of boundary data by caloric polynomials.

    Minimizes sum_i w_i (sum_k c_k v_k(node_i)/s_k - f_i)^2.  One QR of
    [matrix | rhs] (``TrefftzSystem.triangular``, shared by every degree
    fitted on the same system and data) reduces the fit to the leading
    block of R.  Its singular values are those of the leading columns of the
    design matrix, so rank and cond are theirs; rcond is the relative cutoff.
    A square block with none cut is solved by back substitution, any other
    by truncated singular value decomposition.  The residual is the weighted
    misfit norm over the weighted data norm (absolute when the data norm
    vanishes); Q is orthogonal, so the misfit is read off R: that of the
    block, and the part of R's last column below it.  A given ``system`` must
    be of this mesh, A and parity (RegionMismatch) and degree (ValueError), as
    must the degree be a non-negative integer.
    """
    _check_degrees([degree])
    if not 0.0 < rcond < 1.0:
        raise ValueError("rcond must lie in (0, 1)")
    _check_parity(data, parity)
    if system is None:
        system = assemble_system(mesh, A, parity, degree)
    elif degree > system.degree:
        raise ValueError(f"degree {degree} exceeds the system's top degree {system.degree}")
    elif (system.parity, system.mesh_fingerprint) != (parity, mesh.fingerprint()):
        raise RegionMismatch("the system was assembled for another parity or mesh")
    elif not np.array_equal(system.a, A.a):
        raise RegionMismatch("the system was assembled for another coefficient matrix")
    ncols = system.columns_for_degree(degree)
    rhs = system.sqrt_weights * data.concatenated()

    r = system.triangular(rhs)  # short when there are fewer rows than columns
    block, head = r[:ncols, :ncols], r[:ncols, -1]
    coeff, rank, cond = _triangular_solve(block, head, rcond)
    misfit = math.hypot(np.linalg.norm(block @ coeff - head), np.linalg.norm(r[ncols:, -1]))
    norm = float(np.linalg.norm(rhs))
    residual = misfit / norm if norm > 0.0 else misfit
    return CaloricApproximant(parity, degree, A.n, system.alphas[:ncols],
                              coeff, system.scales[:ncols], residual, rank,
                              cond, mesh.fingerprint())


def evaluate_solution(approx, A, points, times):
    """Evaluate the approximant: sum over k of c_k / s_k v_k(x, t) at points
    (m, n) with times (m,).  The basis is evaluated in blocks of at most
    _EVAL_BLOCK points, which bounds the memory of a fine-mesh evaluation.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ts = np.asarray(times, dtype=float).reshape(-1)
    out = np.empty(pts.shape[0])
    raw = approx.raw_coefficients()
    for lo in range(0, pts.shape[0], _EVAL_BLOCK):
        hi = lo + _EVAL_BLOCK
        block = basis_matrix(A, approx.alphas, approx.parity, pts[lo:hi], ts[lo:hi])
        out[lo:hi] = block @ raw
    return out


@dataclass
class StudyReport:
    """Residual-decay record over a sequence of basis degrees; the fields
    typed ``list`` are its per-degree columns.

    seconds[i] is the time of degree i alone: its solve and probe errors,
    without the design-matrix assembly (assembly_s), the one QR
    factorization the degrees share (factorization_s) and the shared
    probe-grid evaluation.  rows[i] is the number of Dirichlet nodes the
    fit weighs, not the rows the TSQR factors after the row maps, and
    columns[i] the number of basis columns of degree i.  final is the
    CaloricApproximant of the last degree; it is not serialized.
    """

    parity: str
    degrees: list
    residuals: list
    ranks: list
    conds: list
    interior_max_errors: list
    seconds: list
    mesh_fingerprint: str
    tag: str
    exploratory: bool
    rows: list
    columns: list
    assembly_s: float
    factorization_s: float
    final: CaloricApproximant

    def __post_init__(self):
        if len({len(getattr(self, f.name)) for f in fields(self) if f.type is list}) != 1:
            raise ValueError("study columns must share one length")

    def to_csv_rows(self):
        """The study table; it has no timing column, so it is a pure function
        of the mesh, the data and the degrees."""
        rows = [["degree", "residual", "rank", "cond", "interior_max_err"]]
        for i, deg in enumerate(self.degrees):
            err = self.interior_max_errors[i]
            rows.append([deg, self.residuals[i], self.ranks[i], self.conds[i],
                         "" if err is None else err])
        return rows

    def to_json_dict(self):
        return _fields_dict(self, skip=("final",))


def interior_probe_grid(mesh):
    """Deterministic interior probe points: 5 radial fractions x 5
    directions x 5 times, clear of the boundary."""
    k = 5
    fracs = np.linspace(0.1, 0.9, k)
    times = np.linspace(0.1, 0.9, k) * mesh.T
    if mesh.n == 2:
        angles = 2.0 * np.pi * np.arange(k) / k
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        # golden-spiral directions: even coverage without a pole cluster
        idx = np.arange(k) + 0.5
        cosom = 1.0 - 2.0 * idx / k
        sinom = np.sqrt(1.0 - cosom**2)
        az = np.pi * (1.0 + math.sqrt(5.0)) * idx
        dirs = np.stack([sinom * np.cos(az), sinom * np.sin(az), cosom], axis=1)
    rho = mesh.cs.radius(dirs)
    pts, ts = [], []
    for f in fracs:
        for t in times:
            pts.append(f * rho[:, None] * dirs)
            ts.append(np.full(dirs.shape[0], t))
    return np.concatenate(pts), np.concatenate(ts)


def completeness_study(mesh, A, parity, data, degrees, rcond=1e-12):
    """solve_dirichlet per degree on one shared system and one shared QR
    factorization; nested least squares makes the residual sequence
    non-increasing.

    Interior max errors, at the points of interior_probe_grid, are reported
    when the data carries an exact field; n=2 runs are flagged exploratory
    (the density theory is stated for higher dimensions).
    """
    degrees = list(degrees)
    _check_degrees(degrees)
    _check_parity(data, parity)
    start = time.perf_counter()
    system = assemble_system(mesh, A, parity, degrees[-1])
    assembly_s = time.perf_counter() - start
    start = time.perf_counter()
    system.triangular(system.sqrt_weights * data.concatenated())
    factorization_s = time.perf_counter() - start
    if data.exact is not None:
        # the leading columns of one top-degree evaluation serve every degree
        probe_points, probe_times = interior_probe_grid(mesh)
        probe = basis_matrix(A, system.alphas, parity, probe_points, probe_times)
        ref = np.asarray(data.exact.value(probe_points, probe_times), dtype=float)

    per_degree = []  # one (residual, rank, cond, error, seconds, columns) per degree
    for deg in degrees:
        start = time.perf_counter()
        approx = solve_dirichlet(mesh, A, parity, deg, data, rcond=rcond,
                                 system=system)
        error = None
        if data.exact is not None:
            vals = probe[:, :len(approx.alphas)] @ approx.raw_coefficients()
            error = float(np.max(np.abs(vals - ref)))
        per_degree.append((approx.residual, approx.rank, approx.cond, error,
                           time.perf_counter() - start, len(approx.alphas)))
    residuals, ranks, conds, errors, seconds, columns = map(list, zip(*per_degree))
    return StudyReport(parity, degrees, residuals, ranks, conds, errors,
                       seconds, mesh.fingerprint(), data.tag,
                       exploratory=(A.n == 2),
                       rows=[len(system.weights)] * len(degrees),
                       columns=columns, assembly_s=assembly_s,
                       factorization_s=factorization_s, final=approx)


@dataclass
class CrossValidation:
    """Coarse-mesh coefficients re-scored on a finer mesh."""

    degree: int
    coarse_residual: float
    fine_residual: float

    @property
    def ratio(self):
        if self.coarse_residual == 0.0:
            return 1.0 if self.fine_residual == 0.0 else np.inf
        return self.fine_residual / self.coarse_residual

    @property
    def flagged(self):
        return self.fine_residual > 2.0 * self.coarse_residual + 1e-14

    def to_json_dict(self):
        return {**_fields_dict(self), "ratio": self.ratio, "flagged": self.flagged}


def cross_validate(approx, fine_mesh, A, data):
    """Guard against quadrature artifacts: re-score a coarse-mesh fit of
    ``data`` against the data resampled on a finer mesh.  Nothing is fitted
    again; the coarse residual is ``approx.residual``.  Needs a data
    generator."""
    if data.generator is None:
        raise DegenerateData("cross validation needs resamplable data")
    parity = approx.parity
    _check_parity(data, parity)

    fine_data = BoundaryData.from_function(fine_mesh, parity, data.generator,
                                           exact=data.exact, tag=data.tag)
    pts, ts, wts = _dirichlet_nodes(fine_mesh, parity)
    f = fine_data.concatenated()
    misfit = evaluate_solution(approx, A, pts, ts) - f
    num = math.sqrt(float(np.sum(wts * misfit**2)))
    den = math.sqrt(float(np.sum(wts * f**2)))
    fine_res = num / den if den > 0.0 else num
    return CrossValidation(approx.degree, approx.residual, fine_res)
