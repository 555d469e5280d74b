import math
import tracemalloc

import numpy as np
import pytest

import calorix as cx
from calorix import solver
from calorix.errors import DegenerateData, RegionMismatch
from calorix.polynomials import basis_matrix
from calorix.quadrature import gauss_legendre


def poly_data(mesh, A, alpha, parity="v"):
    p = cx.caloric_poly(A, alpha, parity)

    class _Field:
        def value(self, pts, ts):
            return p.evaluate(pts, ts)

    return cx.BoundaryData.from_field(mesh, parity, _Field(),
                                      tag=f"poly{alpha}")


def exp_data(mesh, A, xi=(0.3, 0.4)):
    fld = cx.CaloricExponentialField(A, np.asarray(xi, dtype=float), sign=+1)
    return cx.BoundaryData.from_field(mesh, "v", fld, tag="exp")


# -- assembly ---------------------------------------------------------------

def node_rows(mesh, A, system):
    """The oracle of the rows a system maps: sqrt(w) times the basis at
    every node of its parity's regions, over the system's scales."""
    pts, ts, wts = solver._dirichlet_nodes(mesh, system.parity)
    rows = basis_matrix(A, system.alphas, system.parity, pts, ts) * np.sqrt(wts)[:, None]
    return rows / system.scales


def test_column_count_and_scales(solver_mesh, I2):
    system = cx.assemble_system(solver_mesh, I2, "v", 2)
    assert system.matrix.shape[1] == 6
    assert system.columns_for_degree(0) == 1
    assert system.columns_for_degree(1) == 3
    # normalized columns have unit norm whenever the raw norm exceeded one,
    # on the node rows and on the rows the system holds
    big = system.scales > 1.0
    for rows in (node_rows(solver_mesh, I2, system), system.matrix):
        norms = np.linalg.norm(rows, axis=0)
        assert np.allclose(norms[big], 1.0, atol=1e-13)


def test_degree_zero_constant_fit(solver_mesh, I2):
    ones = cx.BoundaryData.from_function(solver_mesh, "v",
                                         lambda p, t: np.ones(p.shape[0]),
                                         tag="const")
    ap = cx.solve_dirichlet(solver_mesh, I2, "v", 0, ones)
    assert ap.residual < 1e-14
    assert ap.raw_coefficients()[0] == pytest.approx(1.0, rel=1e-13)


def test_parity_regions():
    assert cx.parity_regions("v") == ("sigma2", "sigma3")
    assert cx.parity_regions("w") == ("sigma1", "sigma3")
    with pytest.raises(RegionMismatch):
        cx.parity_regions("x")


# -- reproduction of in-space data ------------------------------------------

@pytest.mark.parametrize("alpha", [(2, 1), (3, 3), (0, 6)])
def test_reproduces_caloric_polynomial(solver_mesh, I2, alpha):
    data = poly_data(solver_mesh, I2, alpha)
    ap = cx.solve_dirichlet(solver_mesh, I2, "v", sum(alpha), data)
    assert ap.residual < 1e-9
    raw = ap.raw_coefficients()
    idx = [k for k, a in enumerate(ap.alphas) if a == alpha][0]
    assert raw[idx] == pytest.approx(1.0, abs=1e-9)
    others = [abs(raw[k]) for k in range(len(raw)) if k != idx]
    assert max(others) < 1e-9


def test_round_trip_evaluation(solver_mesh, I2):
    data = poly_data(solver_mesh, I2, (2, 1))
    ap = cx.solve_dirichlet(solver_mesh, I2, "v", 3, data)
    pt = np.array([[1.0, 1.0]])
    got = cx.evaluate_solution(ap, I2, pt, np.array([0.5]))[0]
    want = cx.caloric_poly(I2, (2, 1)).evaluate(pt, np.array([0.5]))[0]
    assert got == pytest.approx(want, abs=1e-9)


def test_zero_coefficients_evaluate_to_zero(solver_mesh, I2):
    data = poly_data(solver_mesh, I2, (1, 0))
    ap = cx.solve_dirichlet(solver_mesh, I2, "v", 2, data)
    ap.coefficients[:] = 0.0
    out = cx.evaluate_solution(ap, I2, np.zeros((3, 2)), np.zeros(3))
    assert np.all(out == 0.0)


def test_reproduction_survives_high_degree_conditioning(solver_mesh, I2):
    # rank-revealing solve keeps in-space data exact even at degree 12
    data = poly_data(solver_mesh, I2, (2, 1))
    ap = cx.solve_dirichlet(solver_mesh, I2, "v", 12, data, rcond=1e-12)
    assert ap.residual < 1e-9
    assert ap.cond > 1e3  # basis really is ill-conditioned by then


# -- shared factorization against direct oracles ----------------------------

def _tall_svd_oracle(matrix, rhs, rcond):
    """Truncated SVD of the design matrix itself: rank, cond, residual."""
    u, sing, vt = np.linalg.svd(matrix, full_matrices=False)
    keep = sing >= rcond * sing[0]
    coeff = vt[keep].T @ ((u[:, keep].T @ rhs) / sing[keep])
    residual = np.linalg.norm(matrix @ coeff - rhs) / np.linalg.norm(rhs)
    return int(np.count_nonzero(keep)), sing[0] / sing[keep][-1], residual


@pytest.mark.parametrize("case", ["disk", "ball"])
def test_qr_ladder_matches_tall_svd(solver_mesh, I2, case):
    if case == "disk":
        A, mesh, data, top = I2, solver_mesh, exp_data(solver_mesh, I2), 12
    else:
        A = cx.make_coefficients(3, [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25],
                                     [0.0, 0.25, 1.0]])
        mesh = cx.build_mesh(cx.CrossSection.ball(1.0), A, 0.5, 24, 12, 6)
        fld = cx.CaloricExponentialField(A, np.array([0.3, -0.2, 0.4]), sign=+1)
        data = cx.BoundaryData.from_field(mesh, "v", fld, tag="exp")
        top = 10
    system = cx.assemble_system(mesh, A, "v", top)
    nodes = node_rows(mesh, A, system)
    rhs = system.sqrt_weights * data.concatenated()
    for deg in range(top + 1):
        ap = cx.solve_dirichlet(mesh, A, "v", deg, data, system=system)
        k = system.columns_for_degree(deg)
        rank, cond, residual = _tall_svd_oracle(nodes[:, :k], rhs, 1e-12)
        assert ap.rank == rank, deg
        assert ap.cond == pytest.approx(cond, rel=1e-8), deg
        assert ap.residual == pytest.approx(residual, rel=1e-4, abs=1e-14), deg
        # every rung is full rank, so back substitution solved it: its fit
        # matches the truncated SVD of the same block of R
        assert rank == k, deg
        r = system.triangular(rhs)
        svd_coeff = solver._svd_solve(r[:k, :k], r[:k, -1], 1e-12)[0]
        fitted = nodes[:, :k] @ ap.coefficients
        gap = np.linalg.norm(fitted - nodes[:, :k] @ svd_coeff)
        assert gap <= 1e-10 * np.linalg.norm(rhs), deg
        # the residual read off R is the misfit on the node rows
        misfit = np.linalg.norm(fitted - rhs) / np.linalg.norm(rhs)
        assert ap.residual == pytest.approx(misfit, rel=1e-4, abs=1e-14), deg


def test_rank_deficient_rung_takes_the_truncated_svd(solver_mesh, I2, monkeypatch):
    # column 2 twice: the square leading blocks of R from degree 1 up are singular
    base = cx.assemble_system(solver_mesh, I2, "v", 3)
    order = [0, 1, 2, 2] + list(range(3, 10))
    system = solver.TrefftzSystem(base.matrix[:, order], [base.alphas[i] for i in order],
                                  base.scales[order], base.weights, "v",
                                  time_modes=base.time_modes, cap_rows=base.cap_rows,
                                  row_maps=base.row_maps,
                                  mesh_fingerprint=base.mesh_fingerprint, a=base.a)
    nodes = node_rows(solver_mesh, I2, system)
    data = exp_data(solver_mesh, I2)
    rhs = system.sqrt_weights * data.concatenated()
    truncated, svd_solve = [], solver._svd_solve

    def spied(matrix, rhs, rcond):
        truncated.append(matrix.shape)
        return svd_solve(matrix, rhs, rcond)

    monkeypatch.setattr(solver, "_svd_solve", spied)
    for deg in range(4):
        ap = cx.solve_dirichlet(solver_mesh, I2, "v", deg, data, system=system)
        k = system.columns_for_degree(deg)
        rank, cond, residual = _tall_svd_oracle(nodes[:, :k], rhs, 1e-12)
        assert ap.rank == rank == (k - 1 if deg else 1), deg
        assert ap.cond == pytest.approx(cond, rel=1e-8), deg
        assert ap.residual == pytest.approx(residual, rel=1e-4, abs=1e-14), deg
    assert truncated == [(4, 4), (7, 7), (11, 11)]


def test_wide_fit_matches_tall_svd(disk, I2):
    # 861 columns on 64 rows: the fit interpolates
    mesh = cx.build_mesh(disk, I2, 0.5, 8, 4, 4)
    data = exp_data(mesh, I2)
    system = cx.assemble_system(mesh, I2, "v", 40)
    assert system.matrix.shape == (64, 861)
    ap = cx.solve_dirichlet(mesh, I2, "v", 40, data, system=system)
    rhs = system.sqrt_weights * data.concatenated()
    rank, _, residual = _tall_svd_oracle(node_rows(mesh, I2, system), rhs, 1e-12)
    assert ap.rank == rank
    assert abs(ap.residual - residual) <= 1e-12


def test_shared_system_never_serves_a_stale_factorization(solver_mesh, I2):
    first = exp_data(solver_mesh, I2)
    second = exp_data(solver_mesh, I2, xi=(-0.5, 0.2))
    shared = cx.assemble_system(solver_mesh, I2, "v", 6)
    for data in (first, second, first):
        got = cx.solve_dirichlet(solver_mesh, I2, "v", 6, data, system=shared)
        fresh = cx.solve_dirichlet(solver_mesh, I2, "v", 6, data)
        assert np.array_equal(got.coefficients, fresh.coefficients)
        assert (got.residual, got.rank, got.cond) == \
            (fresh.residual, fresh.rank, fresh.cond)


# cross-section, mesh (m_angular, m_time, m_radial), degree, parity, node
# rows, and the rows the TSQR factors: those TrefftzSystem.matrix holds and
# the folded rest row.  Every system maps each wall node to its first keep =
# min(degree // 2 + 1, m_time) time modes; Q is square on "unprojected",
# "one-row-block" and "few-times" (keep = m_time = 4) and on "wide".  On a
# conic or quadric section (all but the three stars and "wide", whose
# dim(40) = 81 exceeds its 8 wall nodes) each cap shell and wall time mode is
# held as its spatial modes: m_radial * dim(D) + sum_k dim(D - 2k) rows and
# the folded rest row.  Elsewhere U is the identity: (m_radial + keep) *
# n_boundary rows, and the folded row only when a time mode is left out, so
# "wide" holds its 64 rows as they are.  The TSQR reads the held rows
# _QR_BLOCK at a time.
TSQR_CASES = {
    "one-block": ("disk", (64, 12, 4), 8, "v", 1024, 114),
    "two-blocks": ("ball", (16, 12, 4), 6, "v", 2048, 281),
    "short-last-block": ("disk", (96, 48, 24), 12, "v", 6912, 692),
    "under-one-block": ("disk", (32, 12, 4), 8, "v", 512, 114),
    "adjoint": ("disk", (64, 12, 4), 8, "w", 1024, 114),
    "projected-ball": ("ball", (24, 12, 6), 10, "v", 5184, 1013),
    "short-last-chunk": ("disk", (512, 8, 4), 8, "v", 6144, 114),
    "full-last-chunk": ("disk", (256, 8, 4), 6, "v", 3072, 81),
    "ellipsoid": ("ellipsoid", (24, 12, 10), 10, "v", 6336, 1497),
    "ellipse-adjoint": ("ellipse", (96, 16, 8), 12, "w", 2304, 292),
    "star": ("star", (257, 8, 4), 8, "v", 3084, 2314),
    "star-full-chunk": ("star", (256, 8, 5), 6, "v", 3328, 2305),
    "star-one-node-chunk": ("star", (205, 8, 4), 8, "v", 2460, 1846),
    "wall-over-a-block": ("disk", (96, 24, 12), 44, "v", 3456, 2104),
    "unprojected": ("disk", (300, 4, 4), 6, "v", 2400, 81),
    "one-row-block": ("disk", (569, 4, 5), 6, "v", 5121, 94),
    "wide": ("disk", (8, 4, 4), 40, "v", 64, 64),
    "degree-zero": ("disk", (32, 12, 4), 0, "v", 512, 6),
    "few-times": ("disk", (64, 4, 6), 12, "v", 640, 227),
    "ball-adjoint": ("ball", (16, 12, 4), 6, "w", 2048, 281),
}
IDENTITY_SPACE_MODES = ("star", "star-full-chunk", "star-one-node-chunk", "wide")
LADDER_A = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]]
# each TSQR_CASES kind: its cross-section and coefficient matrix
TSQR_SECTIONS = {
    "disk": (cx.CrossSection.disk(1.0), np.eye(2)),
    "ball": (cx.CrossSection.ball(1.0), np.eye(3)),
    "ellipsoid": (cx.CrossSection.ellipsoid(1.0, 0.5, 0.3), LADDER_A),
    "ellipse": (cx.CrossSection.ellipse(1.2, 0.7), np.eye(2)),
    "star": (cx.CrossSection.star(1.0, (0.0, 0.0, 0.25)), np.eye(2)),
}


def _tsqr_case(case):
    """(system, node rows, rhs) of a TSQR_CASES entry, with exponential data."""
    kind, shape, degree, parity, rows, factored = TSQR_CASES[case]
    cs, entries = TSQR_SECTIONS[kind]
    A = cx.make_coefficients(cs.n, entries)
    mesh = cx.build_mesh(cs, A, 0.5, *shape)
    system = cx.assemble_system(mesh, A, parity, degree)
    assert len(system.weights) == rows
    assert len(system.matrix) + (case != "wide") == factored
    assert system.time_modes.shape == (shape[1], shape[1])
    nb = mesh.n_boundary
    assert (system.row_maps[0].shape == (nb, nb)) == (case in IDENTITY_SPACE_MODES)
    fld = cx.CaloricExponentialField(A, np.array([0.3, 0.4, -0.2][:A.n]), sign=+1)
    data = cx.BoundaryData.from_field(mesh, parity, fld)
    return system, node_rows(mesh, A, system), system.sqrt_weights * data.concatenated()


@pytest.mark.parametrize("case", list(TSQR_CASES))
def test_blocked_triangular_matches_one_qr(case):
    system, nodes, rhs = _tsqr_case(case)
    # the held rows are an orthogonal map of the node rows, and the scales
    # are the node rows' column norms
    gram = nodes.T @ nodes
    held = system.matrix.T @ system.matrix
    assert np.linalg.norm(held - gram) <= 1e-12 * np.linalg.norm(gram)
    raw = np.linalg.norm(nodes * system.scales, axis=0)
    assert np.max(np.abs(system.scales - np.maximum(1.0, raw)) / system.scales) <= 1e-14
    full = np.column_stack([nodes, rhs])
    r = system.triangular(rhs)
    ref = np.linalg.qr(full, mode="r")
    assert r.shape == ref.shape
    assert np.array_equal(r, np.triu(r))
    gram = full.T @ full
    assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
    sing = np.linalg.svd(r, compute_uv=False)
    sing_ref = np.linalg.svd(ref, compute_uv=False)
    assert np.max(np.abs(sing - sing_ref)) <= 1e-12 * sing_ref[0]


@pytest.mark.parametrize("m_time", [4, 16, 48])
def test_time_modes_are_orthogonal(disk, I2, m_time):
    q = cx.assemble_system(cx.build_mesh(disk, I2, 0.5, 8, m_time, 4), I2, "v", 4).time_modes
    assert q.shape == (m_time, m_time)
    assert np.max(np.abs(q.T @ q - np.eye(m_time))) <= 1e-14


@pytest.fixture(scope="module")
def ladder():
    """The benchmark's ladder mesh and its degree-12 system, with the rhs of
    exponential data."""
    A = cx.make_coefficients(3, LADDER_A)
    mesh = cx.build_mesh(cx.CrossSection.ball(1.0), A, 0.5, 32, 16, 8)
    system = cx.assemble_system(mesh, A, "v", 12)
    fld = cx.CaloricExponentialField(A, np.array([0.3, 0.4, -0.2]), sign=+1)
    data = cx.BoundaryData.from_field(mesh, "v", fld)
    return mesh, system, system.sqrt_weights * data.concatenated()


@pytest.fixture(scope="module")
def ladder_nodes(ladder):
    """The node rows of the ladder system: 12288 x 455."""
    mesh, system, _ = ladder
    return node_rows(mesh, cx.make_coefficients(3, LADDER_A), system)


def test_ladder_wall_rows_vanish_beyond_the_kept_modes(ladder, ladder_nodes):
    # each wall node's 16 time samples of a degree-12 column lie in the
    # first 7 time modes
    mesh, system, _ = ladder
    q = system.time_modes
    assert q.shape == (16, 16) and system.cap_rows == len(mesh.cap_points)
    wall = ladder_nodes[system.cap_rows:].reshape(mesh.n_boundary, 16, -1)
    dropped = np.einsum("tk,btc->bkc", q[:, 7:], wall)
    assert np.max(np.abs(dropped)) <= 1e-14 * np.max(np.abs(ladder_nodes))


def test_ladder_rows_lie_in_their_spatial_modes(ladder, ladder_nodes):
    # a cap shell is a degree-12 polynomial on the sphere, (12 + 1)^2 = 169
    # modes, and wall time mode k one of degree 12 - 2k
    mesh, system, _ = ladder
    u_cap, u_wall = system.row_maps[:2]
    assert len(system.row_maps) == 8
    biggest = np.max(np.abs(ladder_nodes))
    for u in (u_cap, u_wall):
        assert u.shape == (mesh.n_boundary, 169)
        assert np.max(np.abs(u.T @ u - np.eye(169))) <= 1e-14
    for shell in ladder_nodes[:system.cap_rows].reshape(mesh.m_radial, mesh.n_boundary, -1):
        assert np.max(np.abs(shell - u_cap @ (u_cap.T @ shell))) <= 1e-14 * biggest
    wall = ladder_nodes[system.cap_rows:].reshape(mesh.n_boundary, 16, -1)
    for k in range(7):
        mode = np.einsum("t,btc->bc", system.time_modes[:, k], wall)
        u = system.row_maps[1 + k]
        assert u.shape == (mesh.n_boundary, (13 - 2 * k) ** 2)
        assert np.max(np.abs(mode - u @ (u.T @ mode))) <= 1e-14 * biggest


@pytest.mark.parametrize("section", [cx.CrossSection.ball(1.0),
                                     cx.CrossSection.ellipsoid(1.0, 0.5, 0.3)],
                         ids=["ball", "ellipsoid"])
@pytest.mark.parametrize("region", ["cap", "wall"])
def test_space_modes_show_a_clear_gap(section, region):
    # each degree's new columns come from the last degree's times each
    # coordinate: past the quadric's 2d + 1 new directions, the singular
    # values fall from at least 0.24 of the largest to roundoff
    mesh = cx.build_mesh(section, cx.make_coefficients(3, LADDER_A), 0.5, 32, 16, 8)
    weights = mesh.cap_weights[:mesh.n_boundary] if region == "cap" else mesh.bweights
    u = solver._space_modes(mesh.bpoints, [weights], 12)[0]
    for d in range(1, 13):
        new = (mesh.bpoints[:, :, None] * u[:, None, (d - 1) ** 2:d ** 2]).reshape(len(u), -1)
        for _ in range(2):
            new -= u[:, :d ** 2] @ (u[:, :d ** 2].T @ new)
        sing = np.linalg.svd(new, compute_uv=False)
        assert sing[2 * d] >= 0.24 * sing[0], d
        assert np.max(sing[2 * d + 1:], initial=0.0) <= 1e-14 * sing[0], d


def test_assembly_peak_stays_below_the_node_matrix(ladder):
    # the node rows alone would be 12288 x 455, 44.7 MB; assembly evaluates
    # the basis at 512 cap and 7 x 512 wall points (14.9 MB) and holds 1807
    # rows (6.6 MB), a traced peak of 27.8 MB
    mesh, system, _ = ladder
    assert system.matrix.shape == (1807, 455)
    tracemalloc.start()
    try:
        cx.assemble_system(mesh, cx.make_coefficients(3, LADDER_A), "v", 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_triangular_peak_stays_below_the_time_mode_loop(ladder):
    # the time-mode loop peaked 14.4 MB over the held matrix on this system,
    # the row-group loop 12.0 MB; reading the held rows takes 11.9 MB, and
    # 13.5 MB if each block's R stays alive through the next block's QR
    _, system, rhs = ladder
    system._factored = None  # factor afresh
    tracemalloc.start()
    try:
        system.triangular(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5e6


@pytest.mark.parametrize("parity", ["v", "w"])
def test_wall_rows_are_node_major_tensor_weighted_and_last(disk_mesh_I, parity):
    # the time-mode projection of TrefftzSystem.triangular reads the wall as
    # the last n_lateral rows, one node's m_time samples after another
    mesh = disk_mesh_I
    assert np.array_equal(mesh.lateral_weights(),
                          np.outer(mesh.bweights, mesh.tweights).ravel())
    # and the spatial projection reads cap shell j as s_j times the wall
    # nodes, with weights a multiple of the first shell's
    s = gauss_legendre(mesh.m_radial, 0.0, 1.0)[0]
    shells = mesh.cap_points.reshape(mesh.m_radial, mesh.n_boundary, mesh.n)
    assert np.max(np.abs(shells - s[:, None, None] * mesh.bpoints)) <= 1e-15
    ratio = mesh.cap_weights.reshape(mesh.m_radial, -1) / mesh.cap_weights[:mesh.n_boundary]
    assert np.max(np.abs(ratio / ratio[:, :1] - 1.0)) <= 1e-14
    pts, ts, wts = solver._dirichlet_nodes(mesh, parity)
    wall = slice(len(pts) - mesh.n_lateral, None)
    assert np.array_equal(pts[wall], np.repeat(mesh.bpoints, len(mesh.tnodes), axis=0))
    assert np.array_equal(ts[wall], np.tile(mesh.tnodes, mesh.n_boundary))
    assert np.array_equal(wts[wall], mesh.lateral_weights())


def test_triangular_does_not_copy_the_matrix(solver_mesh, I2):
    # a star takes the identity spatial modes; on the last, Q is square
    # (keep = m_time = 8), so it holds as many rows as it has nodes, and a
    # copy of the held wall would show as a traced peak of about the matrix
    star = TSQR_SECTIONS["star"][0]
    for mesh, degree in [(solver_mesh, 12), (cx.build_mesh(star, I2, 0.5, 96, 48, 24), 12),
                         (cx.build_mesh(star, I2, 0.5, 1024, 8, 4), 14)]:
        system = cx.assemble_system(mesh, I2, "v", degree)
        nb = mesh.n_boundary
        assert (system.row_maps[0].shape == (nb, nb)) == (mesh is not solver_mesh)
        assert len(system.weights) >= 4 * solver._QR_BLOCK
        rhs = system.sqrt_weights * exp_data(mesh, I2).concatenated()
        tracemalloc.start()
        try:
            system.triangular(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound of the node matrix, which systems held before
        assert peak < 0.5 * len(system.weights) * system.matrix.shape[1] * 8


def test_blocked_evaluation_matches_exact_sum(solver_mesh, I2):
    from calorix.solver import _EVAL_BLOCK

    ap = cx.solve_dirichlet(solver_mesh, I2, "v", 6, exp_data(solver_mesh, I2))
    rng = np.random.default_rng(3)
    count = _EVAL_BLOCK + 37
    pts = rng.uniform(-1.0, 1.0, size=(count, 2))
    ts = rng.uniform(0.0, 0.5, size=count)
    want = np.zeros(count)
    for c, alpha in zip(ap.raw_coefficients(), ap.alphas):
        want += c * cx.caloric_poly(I2, alpha, "v").evaluate(pts, ts)
    got = cx.evaluate_solution(ap, I2, pts, ts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- error paths ------------------------------------------------------------

def test_parity_mismatch_raises(solver_mesh, I2):
    data = poly_data(solver_mesh, I2, (1, 0), parity="v")
    with pytest.raises(RegionMismatch):
        cx.solve_dirichlet(solver_mesh, I2, "w", 2, data)


def test_shared_system_above_its_top_degree_raises(disk, I2):
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    system = cx.assemble_system(mesh, I2, "v", 4)
    with pytest.raises(ValueError, match="top degree 4"):
        cx.solve_dirichlet(mesh, I2, "v", 10, exp_data(mesh, I2), system=system)


@pytest.mark.parametrize("degree, shared", [(-1, True), (2.5, True), (2.5, False)],
                         ids=["negative-shared", "fractional-shared", "fractional"])
def test_solve_rejects_a_bad_degree(disk, I2, degree, shared):
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    system = cx.assemble_system(mesh, I2, "v", 4) if shared else None
    with pytest.raises(ValueError, match="non-negative integers"):
        cx.solve_dirichlet(mesh, I2, "v", degree, exp_data(mesh, I2), system=system)


def test_shared_system_of_the_other_parity_raises(disk, I2):
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    system = cx.assemble_system(mesh, I2, "w", 6)
    with pytest.raises(RegionMismatch, match="another parity or mesh"):
        cx.solve_dirichlet(mesh, I2, "v", 6, exp_data(mesh, I2), system=system)


def test_shared_system_of_another_mesh_raises(disk, I2):
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    system = cx.assemble_system(cx.build_mesh(disk, I2, 0.5, 16, 12, 4), I2, "v", 6)
    with pytest.raises(RegionMismatch, match="another parity or mesh"):
        cx.solve_dirichlet(mesh, I2, "v", 6, exp_data(mesh, I2), system=system)


@pytest.mark.parametrize("other", ["A", "T"])
def test_shared_system_of_another_operator_or_horizon_raises(disk, I2, B2, other):
    # same parity and rows: a fit on it would miss the data by 0.2 or 0.1
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    if other == "A":
        system = cx.assemble_system(mesh, B2, "v", 10)
    else:
        system = cx.assemble_system(cx.build_mesh(disk, I2, 1.0, 32, 12, 4), I2, "v", 10)
    match = "another coefficient matrix" if other == "A" else "another parity or mesh"
    with pytest.raises(RegionMismatch, match=match):
        cx.solve_dirichlet(mesh, I2, "v", 10, exp_data(mesh, I2), system=system)


def test_hand_built_system_must_name_its_mesh_and_A(solver_mesh, I2):
    base = cx.assemble_system(solver_mesh, I2, "v", 3)
    with pytest.raises(TypeError, match="mesh_fingerprint"):
        solver.TrefftzSystem(base.matrix, base.alphas, base.scales, base.weights, "v")


def test_bad_rcond_raises(solver_mesh, I2):
    data = poly_data(solver_mesh, I2, (1, 0))
    with pytest.raises(ValueError):
        cx.solve_dirichlet(solver_mesh, I2, "v", 2, data, rcond=2.0)


def test_non_finite_data_rejected(solver_mesh):
    vals2 = np.zeros(solver_mesh.cap_points.shape[0])
    vals3 = np.full(solver_mesh.n_lateral, np.nan)
    with pytest.raises(DegenerateData):
        cx.BoundaryData("v", {"sigma2": vals2, "sigma3": vals3})


def test_wrong_region_set_rejected(solver_mesh):
    vals = np.zeros(solver_mesh.n_lateral)
    with pytest.raises(RegionMismatch):
        cx.BoundaryData("v", {"sigma1": vals, "sigma3": vals})


def test_sample_count_mismatch(solver_mesh):
    with pytest.raises(DegenerateData):
        cx.BoundaryData.from_values(solver_mesh, "v",
                                    {"sigma2": np.zeros(3),
                                     "sigma3": np.zeros(4)})


# -- invariances ------------------------------------------------------------

def test_scaling_equivariance(solver_mesh, I2):
    data = exp_data(solver_mesh, I2)
    lam = 7.5
    scaled = cx.BoundaryData(
        "v", {r: lam * v for r, v in data.values.items()}, tag="scaled")
    a1 = cx.solve_dirichlet(solver_mesh, I2, "v", 6, data)
    a2 = cx.solve_dirichlet(solver_mesh, I2, "v", 6, scaled)
    # roundoff is relative to the coefficient vector as a whole
    scale = np.linalg.norm(lam * a1.coefficients)
    assert np.max(np.abs(a2.coefficients - lam * a1.coefficients)) < 1e-12 * scale
    assert a2.residual == pytest.approx(a1.residual, abs=1e-12)


def test_nested_residual_monotonicity(solver_mesh, I2):
    data = exp_data(solver_mesh, I2)
    report = cx.completeness_study(solver_mesh, I2, "v", data,
                                   list(range(0, 9)))
    for a, b in zip(report.residuals, report.residuals[1:]):
        assert b <= a + 1e-12


def test_interior_error_tracks_residual(solver_mesh, I2):
    # loose maximum-principle heuristic: interior error below 10x the
    # weighted data norm times the relative residual
    data = exp_data(solver_mesh, I2)
    report = cx.completeness_study(solver_mesh, I2, "v", data,
                                   [4, 8])
    wts = np.concatenate([solver_mesh.region_nodes(r)[2]
                          for r in cx.parity_regions("v")])
    norm_f = math.sqrt(float(np.sum(wts * data.concatenated()**2)))
    for res, err in zip(report.residuals, report.interior_max_errors):
        assert err <= 10.0 * res * norm_f


# -- decay studies ----------------------------------------------------------

def test_exponential_residual_decay(solver_mesh, I2):
    data = exp_data(solver_mesh, I2)
    report = cx.completeness_study(solver_mesh, I2, "v", data,
                                   [0, 2, 4, 6, 8, 10, 12])
    assert report.residuals[-1] < 1e-6
    assert report.exploratory  # n = 2 runs carry the exploratory label
    assert all(r > 0 for r in report.seconds)


def test_taylor_tail_bounds_ls_residual(solver_mesh, I2):
    # truncated exponential series is itself an admissible competitor, so
    # its boundary misfit bounds the least-squares residual from above
    xi = np.array([0.3, 0.4])
    data = exp_data(solver_mesh, I2, xi)
    regions = cx.parity_regions("v")
    pts = np.concatenate([solver_mesh.region_nodes(r)[0] for r in regions])
    ts = np.concatenate([solver_mesh.region_nodes(r)[1] for r in regions])
    wts = np.concatenate([solver_mesh.region_nodes(r)[2] for r in regions])
    f = data.concatenated()
    norm_f = math.sqrt(float(np.sum(wts * f**2)))

    for N in (8, 12):
        partial = np.zeros(pts.shape[0])
        for alpha in cx.enumerate_basis(2, N):
            coef = (xi[0]**alpha[0] * xi[1]**alpha[1]
                    / (math.factorial(alpha[0]) * math.factorial(alpha[1])))
            partial += coef * cx.caloric_poly(I2, alpha).evaluate(pts, ts)
        tail = math.sqrt(float(np.sum(wts * (partial - f)**2))) / norm_f
        ap = cx.solve_dirichlet(solver_mesh, I2, "v", N, data)
        assert ap.residual <= tail * (1.0 + 1e-10) + 1e-15
        if N == 12:
            assert tail < 1e-6


def test_absolute_value_data_decays(solver_mesh, I2):
    data = cx.BoundaryData.from_function(solver_mesh, "v",
                                         lambda p, t: np.abs(p[:, 0]),
                                         tag="abs")
    report = cx.completeness_study(solver_mesh, I2, "v", data, [2, 6, 10])
    assert report.residuals[2] < 0.5 * report.residuals[0]
    assert report.interior_max_errors == [None, None, None]


def test_adjoint_study_matches_reflected_forward(solver_mesh, I2):
    fld = cx.CaloricExponentialField(I2, np.array([0.3, 0.4]), sign=+1)
    T = solver_mesh.T
    fv = cx.BoundaryData.from_field(solver_mesh, "v", fld, tag="exp")
    fw = cx.BoundaryData.from_function(solver_mesh, "w",
                                       lambda p, t: fld.value(p, T - t),
                                       tag="exp-mirror")
    degrees = list(range(0, 9))
    rv = cx.completeness_study(solver_mesh, I2, "v", fv, degrees)
    rw = cx.completeness_study(solver_mesh, I2, "w", fw, degrees)
    for a, b in zip(rv.residuals, rw.residuals):
        assert abs(a - b) < 1e-10


def test_degrees_must_increase(solver_mesh, I2):
    data = exp_data(solver_mesh, I2)
    with pytest.raises(ValueError):
        cx.completeness_study(solver_mesh, I2, "v", data, [2, 2, 4])


@pytest.mark.parametrize("degrees", [[], [-1, 0]], ids=["empty", "negative"])
def test_study_rejects_bad_degrees(disk, I2, degrees):
    mesh = cx.build_mesh(disk, I2, 0.5, 32, 12, 4)
    with pytest.raises(ValueError, match="non-negative integers"):
        cx.completeness_study(mesh, I2, "v", exp_data(mesh, I2), degrees)


def test_study_report_round_trip(solver_mesh, I2):
    data = exp_data(solver_mesh, I2)
    report = cx.completeness_study(solver_mesh, I2, "v", data, [0, 2])
    rows = report.to_csv_rows()
    assert rows[0][0] == "degree"
    assert len(rows) == 3
    assert not {"rows", "columns", "assembly_s", "factorization_s"} & set(rows[0])
    d = report.to_json_dict()
    assert d["degrees"] == [0, 2]
    assert d["exploratory"] is True
    n_rows = sum(solver_mesh.region_nodes(r)[0].shape[0]
                 for r in cx.parity_regions("v"))
    assert d["rows"] == [n_rows, n_rows]
    assert d["columns"] == [1, 6]
    assert d["assembly_s"] > 0.0 and d["factorization_s"] > 0.0
    assert len(d["seconds"]) == 2 and all(s > 0.0 for s in d["seconds"])


# -- cross validation -------------------------------------------------------

def test_cross_validation_flags_nothing_for_smooth_data(solver_mesh, disk, I2):
    fine = cx.build_mesh(disk, I2, 0.5, 192, 96, 48)
    data = exp_data(solver_mesh, I2)
    cv = cx.cross_validate(cx.solve_dirichlet(solver_mesh, I2, "v", 8, data),
                           fine, I2, data)
    assert cv.ratio < 2.0
    assert not cv.flagged


def test_cross_validation_polynomial_both_tiny(solver_mesh, disk, I2):
    fine = cx.build_mesh(disk, I2, 0.5, 192, 96, 48)
    data = poly_data(solver_mesh, I2, (2, 1))
    cv = cx.cross_validate(cx.solve_dirichlet(solver_mesh, I2, "v", 4, data),
                           fine, I2, data)
    assert cv.coarse_residual < 1e-9
    assert cv.fine_residual < 1e-9


def test_cross_validation_zero_data(solver_mesh, disk, I2):
    fine = cx.build_mesh(disk, I2, 0.5, 128, 64, 32)
    zero = cx.BoundaryData.from_function(solver_mesh, "v",
                                         lambda p, t: np.zeros(p.shape[0]),
                                         tag="zero")
    cv = cx.cross_validate(cx.solve_dirichlet(solver_mesh, I2, "v", 3, zero),
                           fine, I2, zero)
    assert cv.coarse_residual == 0.0
    assert cv.fine_residual == 0.0
    assert not cv.flagged


def test_cross_validation_needs_generator(solver_mesh, disk, I2):
    fine = cx.build_mesh(disk, I2, 0.5, 128, 64, 32)
    vals = {r: np.ones(solver_mesh.region_nodes(r)[0].shape[0])
            for r in ("sigma2", "sigma3")}
    data = cx.BoundaryData.from_values(solver_mesh, "v", vals)
    with pytest.raises(DegenerateData):
        cx.cross_validate(cx.solve_dirichlet(solver_mesh, I2, "v", 2, data),
                          fine, I2, data)


def test_study_final_is_the_top_degree_fit(solver_mesh, disk, I2):
    data = exp_data(solver_mesh, I2)
    final = cx.completeness_study(solver_mesh, I2, "v", data, [2, 6, 8]).final
    fresh = cx.solve_dirichlet(solver_mesh, I2, "v", 8, data)
    assert np.array_equal(final.coefficients, fresh.coefficients)
    assert final.residual == fresh.residual
    assert final.rank == fresh.rank
    fine = cx.build_mesh(disk, I2, 0.5, 128, 64, 32)
    assert (cx.cross_validate(final, fine, I2, data).to_json_dict()
            == cx.cross_validate(fresh, fine, I2, data).to_json_dict())


def test_cross_validation_checks_parity(solver_mesh, disk, I2):
    fine = cx.build_mesh(disk, I2, 0.5, 128, 64, 32)
    data = exp_data(solver_mesh, I2)
    adjoint = cx.BoundaryData.from_function(solver_mesh, "w", data.generator)
    approx = cx.solve_dirichlet(solver_mesh, I2, "v", 2, data)
    with pytest.raises(RegionMismatch):
        cx.cross_validate(approx, fine, I2, adjoint)


def test_interior_probe_grid_inside(solver_mesh):
    pts, ts = cx.interior_probe_grid(solver_mesh)
    assert pts.shape == (125, 2) and ts.shape == (125,)
    for x, t in zip(pts, ts):
        assert solver_mesh.locate((x, t)).kind == "interior"
