"""End-to-end acceptance checks.

Each test covers one numbered claim about the library, prints a single
[criterion N] PASS/FAIL line with the measured margin, and asserts the
stated tolerance. Meshes and matrices come from conftest fixtures; every
expected value is either exact (rational arithmetic) or produced by an
independent oracle.
"""
import json

import numpy as np
import pytest

import calorix as cx
from calorix import cli
from conftest import ENTRIES, exterior_probes, interior_probes
from fdtools import series_polynomial_terms


def report(capsys, num, ok, msg):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num}] {status} - {msg}")
    assert ok, f"criterion {num}: {msg}"


# ---------------------------------------------------------------------------

def test_criterion_01_exact_annihilation(capsys, I1, I2, I3, B2, D3, C3):
    count, bad = 0, 0
    for A in (I1, I2, I3, B2, D3, C3):
        for alpha in cx.enumerate_basis(A.n, 8):
            v = cx.caloric_poly(A, alpha, "v")
            bad += cx.apply_parabolic_operator(v, A, "H").terms != {}
            w = cx.caloric_poly(A, alpha, "w")
            bad += cx.apply_parabolic_operator(w, A, "H*").terms != {}
            count += 2
    report(capsys, 1, bad == 0,
           f"exact annihilation (rational arithmetic, zero tolerance) for "
           f"{count} polynomials, degrees <= 8, 6 coefficient matrices; "
           f"failures: {bad}")


def test_criterion_02_initial_trace_and_degrees(capsys, I1, I2, I3, B2, D3, C3):
    count, bad, tmax = 0, 0, 0
    for A in (I1, I2, I3, B2, D3, C3):
        for alpha in cx.enumerate_basis(A.n, 8):
            for parity in ("v", "w"):
                p = cx.caloric_poly(A, alpha, parity)
                ok = p.trace_t0() == {alpha: 1}
                ok &= all(p.degree_in_x(j) == alpha[j] for j in range(A.n))
                ok &= p.degree_in_t() <= sum(alpha) // 2
                tmax = max(tmax, p.degree_in_t())
                bad += not ok
                count += 1
    report(capsys, 2, bad == 0,
           f"t=0 trace equals x^alpha and per-variable x-degrees equal alpha "
           f"for {count} polynomials; t-degree <= floor(|alpha|/2) "
           f"(largest seen: {tmax}); failures: {bad}")


def test_criterion_03_generating_function_extraction(capsys, I1, B2, C3):
    count, bad = 0, 0
    for A, key in ((I1, "I1"), (B2, "B2"), (C3, "C3")):
        for alpha in cx.enumerate_basis(A.n, 6):
            for parity, sign in (("v", +1), ("w", -1)):
                built = cx.caloric_poly(A, alpha, parity).terms
                oracle = series_polynomial_terms(ENTRIES[key], alpha, sign)
                bad += built != oracle
                count += 1
    report(capsys, 3, bad == 0,
           f"coefficient extraction from the exponential generating series "
           f"reproduces all {count} polynomials exactly (degrees <= 6, "
           f"n in {{1,2,3}}); failures: {bad}")


def test_criterion_04_moment_identity(capsys, I2, B2):
    worst = 0.0
    x = np.array([0.3, -0.2])
    for A in (I2, B2):
        for alpha in cx.enumerate_basis(2, 4):
            for t in (0.1, 1.0):
                worst = max(worst, cx.moment_identity_check(A, alpha, (x, t)))
    report(capsys, 4, worst < 1e-8,
           f"free-space Gaussian moments match v_alpha for |alpha| <= 4, "
           f"t in {{0.1, 1}}, both matrices; worst error {worst:.3e} "
           f"(tolerance 1e-8)")


def test_criterion_05_partition_of_unity(capsys, disk_mesh_I, disk_mesh_B,
                                         ellipse_mesh_I, ellipse_mesh_B):
    worst, total = 0.0, 0
    meshes = (disk_mesh_I, disk_mesh_B, ellipse_mesh_I, ellipse_mesh_B)
    for seed, mesh in enumerate(meshes, start=40):
        rng = np.random.default_rng(seed)
        probes = ([(x, 1.0) for x in interior_probes(mesh.cs, rng, 12)]
                  + [(x, 0.0) for x in exterior_probes(mesh.cs, rng, 8)])
        partition = cx.representation_values(mesh, mesh.A, [cx.ConstantField()])
        for x, expect in probes:
            t = rng.uniform(0.1, 0.9)
            (got,) = partition((x, t))
            worst = max(worst, abs(got - expect))
            total += 1
    report(capsys, 5, worst < 1e-6,
           f"caloric partition of unity is 1 inside / 0 outside at {total} "
           f"probes over disk and ellipse cylinders, identity and coupled "
           f"matrices; worst deviation {worst:.3e} (tolerance 1e-6)")


def test_criterion_06_elliptic_gauss_identity(capsys, I3, C3):
    shapes = (cx.CrossSection.ball(1.0), cx.CrossSection.ellipsoid(1.5, 1.0, 0.75))
    w_in = w_out = w_on = 0.0
    rng = np.random.default_rng(6)
    for cs in shapes:
        for A in (I3, C3):
            for _ in range(4):
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                r = float(cs.radius(d[None, :])[0])
                w_in = max(w_in, abs(
                    cx.elliptic_gauss_identity(cs, A, 0.5 * r * d) - 1.0))
                w_out = max(w_out, abs(
                    cx.elliptic_gauss_identity(cs, A, 1.55 * r * d)))
                w_on = max(w_on, abs(
                    cx.elliptic_gauss_identity(cs, A, r * d) - 0.5))
    ok = w_in < 1e-6 and w_out < 1e-6 and w_on < 1e-3
    report(capsys, 6, ok,
           f"elliptic conormal flux identity on ball and ellipsoid: "
           f"interior {w_in:.3e} (tol 1e-6), exterior {w_out:.3e} "
           f"(tol 1e-6), on-surface {w_on:.3e} (tol 1e-3)")


def test_criterion_07_lateral_jump_relations(capsys, disk_mesh_I, I2):
    mesh = disk_mesh_I
    K = mesh.tnodes.shape[0]
    rng = np.random.default_rng(2026)
    ok_times = np.nonzero((mesh.tnodes > 0.1 * mesh.T)
                          & (mesh.tnodes < 0.9 * mesh.T))[0]

    def density(m, c):
        def gen(p, t, nu):
            th = np.arctan2(p[:, 1], p[:, 0])
            ang = (c[0] + c[1] * np.cos(th) + c[2] * np.sin(th)
                   + c[3] * np.cos(2 * th) + c[4] * np.sin(2 * th))
            return ang * (1.0 + c[5] * t + c[6] * t * t)
        return cx.DensityField.from_function(m, "sigma3", gen)

    pairs = []
    while len(pairs) < 10:
        phi = density(mesh, rng.normal(size=7))
        node = (int(rng.integers(0, mesh.n_boundary)) * K
                + int(ok_times[rng.integers(0, ok_times.size)]))
        if abs(phi.values[node]) >= 0.2 * float(np.max(np.abs(phi.values))):
            pairs.append((phi, node))
    worst = 0.0
    for phi, node in pairs:
        for kind in ("double", "conormal_single"):
            worst = max(worst,
                        cx.jump_probe(mesh, I2, phi, node, kind).relative_error)

    # refining the approach distance shrinks the raw two-sided error, and
    # extrapolation lands far below the finest raw rung
    def gen(p, t, nu):
        th = np.arctan2(p[:, 1], p[:, 0])
        return np.cos(th) * t * (1.0 - t) + 1.0
    phi = cx.DensityField.from_function(mesh, "sigma3", gen)
    node = (mesh.n_boundary // 3) * K + K // 2
    probe = cx.jump_probe(mesh, I2, phi, node, "double")
    raw = np.abs((probe.interior_values - probe.exterior_values)
                 - probe.predicted_jump)
    ladder_ok = (all(b < a for a, b in zip(raw, raw[1:]))
                 and probe.error < raw[-1])

    # independent oracle: forward probes equal adjoint probes of the
    # time-mirrored density at mirrored targets
    mir = cx.DensityField.from_function(
        mesh, "sigma3", lambda p, t, nu: gen(p, mesh.T - t, nu))
    dual = 0.0
    for xy, t in (((0.3, 0.2), 0.4), ((0.7, -0.1), 0.8), ((1.5, 0.6), 0.5)):
        tgt, mtg = (np.array(xy), t), (np.array(xy), mesh.T - t)
        dual = max(dual, abs(cx.double_layer(mesh, I2, phi, tgt)
                             - cx.double_layer_star(mesh, I2, mir, mtg)))
        dual = max(dual, abs(cx.single_layer(mesh, I2, phi, tgt)
                             - cx.single_layer_star(mesh, I2, mir, mtg)))

    ok = worst <= 1e-2 and ladder_ok and dual <= 1e-10
    report(capsys, 7, ok,
           f"two-sided lateral jumps match predicted density values for 10 "
           f"density/node pairs, both layer kinds (worst relative error "
           f"{worst:.3e}, tol 1e-2); raw error falls {raw[0]:.2e} -> "
           f"{raw[-1]:.2e} over the offset ladder with extrapolation at "
           f"{probe.error:.2e}; time-reversal duality {dual:.2e} (tol 1e-10)")


def test_criterion_08_boundary_representation(capsys, disk, B2):
    T = 1.0
    mesh = cx.build_mesh(disk, B2, T, 160, 64, 32)
    runs = (
        (cx.CaloricExponentialField(B2, np.array([0.3, -0.2]), sign=+1), "H"),
        (cx.TranslatedKernelField(B2, np.array([2.4, 1.0]), -0.3), "H"),
        (cx.CaloricExponentialField(B2, np.array([0.3, -0.2]), sign=-1), "H*"),
        (cx.TranslatedKernelField(B2, np.array([2.4, 1.0]), T + 0.4,
                                  adjoint=True), "H*"),
    )
    interior = [(np.array([r * np.cos(th), r * np.sin(th)]), t)
                for r in (0.2, 0.5, 0.8) for th in (0.3, 2.1, 4.4)
                for t in (0.1, 0.4, 0.85)]
    exterior = [(np.array([r * np.cos(th), r * np.sin(th)]), t)
                for r in (1.3, 1.7) for th in (0.9, 3.6) for t in (0.25, 0.75)]
    worst = 0.0
    for fld, which in runs:
        values = cx.representation_values(mesh, B2, [fld], which)
        for target in interior + exterior:
            (value,) = values(target)
            miss = cx.representation_discrepancy(fld, target, value, mesh.locate(target).kind)
            worst = max(worst, abs(miss))
    report(capsys, 8, worst < 1e-6,
           f"boundary representation (caps + both lateral layers) closes for "
           f"exponential and translated-kernel solutions, forward and "
           f"adjoint, at 27 interior + 8 exterior targets each; worst miss "
           f"{worst:.3e} (tolerance 1e-6)")


def test_criterion_09_initial_limit(capsys, ellipse_mesh_B, B2):
    def f(p, t, nu):
        return np.sin(p[:, 0]) * np.exp(0.3 * p[:, 1])
    phi = cx.DensityField.from_function(ellipse_mesh_B, "sigma2", f)
    rng = np.random.default_rng(17)
    worst = 0.0
    for x in interior_probes(ellipse_mesh_B.cs, rng, 10, frac=(0.0, 0.6)):
        got = cx.cap_potential(ellipse_mesh_B, B2, phi, (x, 1e-4))
        worst = max(worst, abs(got - float(f(x[None, :], None, None)[0])))
    report(capsys, 9, worst < 1e-3,
           f"bottom-cap potential at t = 1e-4 recovers its density at 10 "
           f"interior points; worst error {worst:.3e} (tolerance 1e-3)")


def test_criterion_10_polynomial_reproduction(capsys, solver_mesh, I2):
    cases = [((0, 0), "v"), ((1, 0), "v"), ((1, 1), "v"), ((2, 1), "v"),
             ((2, 2), "v"), ((3, 2), "v"), ((3, 3), "v"),
             ((2, 1), "w"), ((3, 3), "w")]
    worst = 0.0
    for alpha, parity in cases:
        p = cx.caloric_poly(I2, alpha, parity)

        class _F:
            def value(self, pts, ts):
                return p.evaluate(pts, ts)

        data = cx.BoundaryData.from_field(solver_mesh, parity, _F())
        ap = cx.solve_dirichlet(solver_mesh, I2, parity, sum(alpha), data)
        worst = max(worst, ap.residual)
    report(capsys, 10, worst < 1e-9,
           f"least-squares fit at matching degree reproduces caloric "
           f"polynomial data (degrees 0..6, both parities); worst relative "
           f"residual {worst:.3e} (tolerance 1e-9)")


def test_criterion_11_residual_decay(capsys, solver_mesh, I2):
    degrees = list(range(0, 13))
    fld = cx.CaloricExponentialField(I2, np.array([0.3, 0.4]), sign=+1)
    data_v = cx.BoundaryData.from_field(solver_mesh, "v", fld)
    rv = cx.completeness_study(solver_mesh, I2, "v", data_v, degrees)
    monotone = all(b <= a + 1e-12
                   for a, b in zip(rv.residuals, rv.residuals[1:]))

    data_abs = cx.BoundaryData.from_function(solver_mesh, "v",
                                             lambda p, t: np.abs(p[:, 0]))
    ra = cx.completeness_study(solver_mesh, I2, "v", data_abs, [2, 6, 10])
    ratio = ra.residuals[-1] / ra.residuals[0]

    T = solver_mesh.T
    data_w = cx.BoundaryData.from_function(solver_mesh, "w",
                                           lambda p, t: fld.value(p, T - t))
    rw = cx.completeness_study(solver_mesh, I2, "w", data_w, degrees)
    mirror = max(abs(a - b) for a, b in zip(rv.residuals, rw.residuals))

    ok = (monotone and rv.residuals[-1] < 1e-6 and ratio < 0.5
          and mirror <= 1e-10)
    report(capsys, 11, ok,
           f"weighted boundary residuals decay: exponential data "
           f"non-increasing over degrees 0..12 with final residual "
           f"{rv.residuals[-1]:.3e} (tol 1e-6); |y1| data ratio "
           f"res(10)/res(2) = {ratio:.3f} (tol 0.5); time-reflected adjoint "
           f"study matches to {mirror:.2e} (tol 1e-10)")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    cfg = {
        "operator": {"n": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "geometry": {"kind": "disk", "params": {"radius": 1.0}, "T": 0.5},
        "mesh": {"m_angular": 16, "m_time": 6, "m_radial": 4},
        "task": {"name": "completeness",
                 "degrees": [0, 2, 4],
                 "data": {"kind": "caloric-exponential", "xi": [0.3, 0.4]}},
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def run(out):
        code = cli.main(["completeness", "--config", str(path),
                         "--out", str(tmp_path / out)])
        assert code == 0
        raw = (tmp_path / out / "study.csv").read_bytes()
        return b"".join(ln for ln in raw.splitlines(keepends=True)
                        if not ln.startswith(b"# calorix "))

    same = run("a") == run("b")
    report(capsys, 12, same,
           "repeated CLI runs of the same config produce byte-identical CSV "
           "bodies once the timestamp comment line is dropped")
