import math
import tracemalloc

import numpy as np
import pytest

import calorix as cx
from calorix import solver
from calorix.errors import DegenerateData, RegionMismatch


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

def test_column_count_and_scales(solver_mesh, I2):
    system = cx.assemble_system(solver_mesh, I2, "v", 2)
    assert system.matrix.shape[1] == 6
    assert system.columns_for_degree(0) == 1
    assert system.columns_for_degree(1) == 3
    # normalized columns have unit norm whenever the raw norm exceeded one
    norms = np.linalg.norm(system.matrix, axis=0)
    big = system.scales > 1.0
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
    rhs = system.sqrt_weights * data.concatenated()
    for deg in range(top + 1):
        ap = cx.solve_dirichlet(mesh, A, "v", deg, data, system=system)
        k = system.columns_for_degree(deg)
        rank, cond, residual = _tall_svd_oracle(system.matrix[:, :k], rhs, 1e-12)
        assert ap.rank == rank, deg
        assert ap.cond == pytest.approx(cond, rel=1e-8), deg
        assert ap.residual == pytest.approx(residual, rel=1e-4, abs=1e-14), deg


def test_wide_fit_matches_tall_svd(disk, I2):
    # 861 columns on 64 rows: the fit interpolates
    mesh = cx.build_mesh(disk, I2, 0.5, 8, 4, 4)
    data = exp_data(mesh, I2)
    system = cx.assemble_system(mesh, I2, "v", 40)
    assert system.matrix.shape == (64, 861)
    ap = cx.solve_dirichlet(mesh, I2, "v", 40, data, system=system)
    rhs = system.sqrt_weights * data.concatenated()
    rank, _, residual = _tall_svd_oracle(system.matrix, rhs, 1e-12)
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


# cross-section, mesh (m_angular, m_time, m_radial), degree and design rows:
# one and two whole row blocks, a short last block, less than one block, and
# a wide system (64 rows, 861 columns)
TSQR_CASES = {
    "one-block": ("disk", (64, 12, 4), 8, 1024),
    "two-blocks": ("ball", (16, 12, 4), 6, 2048),
    "short-last-block": ("disk", (96, 48, 24), 12, 6912),
    "under-one-block": ("disk", (32, 12, 4), 8, 512),
    "wide": ("disk", (8, 4, 4), 40, 64),
}


@pytest.mark.parametrize("case", list(TSQR_CASES))
def test_blocked_triangular_matches_one_qr(I2, I3, case):
    kind, shape, degree, rows = TSQR_CASES[case]
    A = I2 if kind == "disk" else I3
    mesh = cx.build_mesh(getattr(cx.CrossSection, kind)(1.0), A, 0.5, *shape)
    system = cx.assemble_system(mesh, A, "v", degree)
    assert system.matrix.shape[0] == rows
    fld = cx.CaloricExponentialField(A, np.array([0.3, 0.4, -0.2][:A.n]), sign=+1)
    data = cx.BoundaryData.from_field(mesh, "v", fld)
    rhs = system.sqrt_weights * data.concatenated()
    full = np.column_stack([system.matrix, rhs])
    r = system.triangular(rhs)
    ref = np.linalg.qr(full, mode="r")
    assert r.shape == ref.shape
    assert np.array_equal(r, np.triu(r))
    gram = full.T @ full
    assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
    sing = np.linalg.svd(r, compute_uv=False)
    sing_ref = np.linalg.svd(ref, compute_uv=False)
    assert np.max(np.abs(sing - sing_ref)) <= 1e-12 * sing_ref[0]


def test_triangular_does_not_copy_the_matrix(solver_mesh, I2):
    system = cx.assemble_system(solver_mesh, I2, "v", 12)
    assert system.matrix.shape[0] >= 4 * solver._QR_BLOCK
    rhs = system.sqrt_weights * exp_data(solver_mesh, I2).concatenated()
    tracemalloc.start()
    try:
        system.triangular(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * system.matrix.nbytes


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
