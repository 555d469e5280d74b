"""Isolated layer probes: each times one layer call on fixed-size inputs.

``polynomials.exact_build_s`` needs a process whose rational basis cache is
empty, so ``exact_build`` is run in a fresh process; the others run in a
warm process after the traced CLI runs.
"""

import math
import statistics
import time

import numpy as np

from workloads import LADDER_A, PARAMS, PLANAR_A


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def exact_build():
    """Seconds to build the exact n=3 basis up to the ladder's top degree."""
    import calorix as cx

    A = cx.make_coefficients(3, LADDER_A)
    top = PARAMS["ladder"]["degrees"][-1]
    t0 = time.perf_counter()
    for alpha in cx.enumerate_basis(3, top):
        cx.caloric_poly(A, alpha, "v")
    return time.perf_counter() - t0


def run(seed):
    """Isolated layer timings, inputs drawn from ``seed``."""
    import calorix as cx

    rng = np.random.default_rng(seed)
    out = {}

    A2 = cx.make_coefficients(2, PLANAR_A)
    z = rng.normal(size=(100_000, 2))
    out["core.G_pts_per_s"] = z.shape[0] / _median_time(
        lambda: cx.fundamental_solution(A2, z, 0.5), 9)

    p = PARAMS["ladder"]
    A3 = cx.make_coefficients(3, LADDER_A)
    mesh3 = cx.build_mesh(cx.CrossSection.ball(1.0), A3, p["T"], *p["mesh"])
    top = p["degrees"][-1]
    system = cx.assemble_system(mesh3, A3, "v", top)
    out["solver.assemble_s"] = _median_time(
        lambda: cx.assemble_system(mesh3, A3, "v", top), 2)
    xi = rng.normal(size=3)
    xi *= p["xi_norm"] / np.linalg.norm(xi)
    data = cx.BoundaryData.from_field(
        mesh3, "v", cx.CaloricExponentialField(A3, xi, sign=+1))
    out["solver.solve_s.deg12"] = _median_time(
        lambda: cx.solve_dirichlet(mesh3, A3, "v", top, data, system=system), 2)

    p = PARAMS["jumps"]
    mesh2 = cx.build_mesh(cx.CrossSection.disk(1.0), A2, p["T"], *p["mesh"])
    c = rng.normal(size=4)

    def gen(pts, ts, nu):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return (c[0] + c[1] * np.cos(th) + c[2] * np.sin(th)) * (1.0 + c[3] * ts)

    lateral = cx.DensityField.from_function(mesh2, "sigma3", gen)
    cap = cx.DensityField.from_function(mesh2, "sigma2", gen)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=16)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    gap = 0.5 * mesh2.boundary_spacing

    def per_target_ms(fn, targets):
        return 1e3 * statistics.median(
            _median_time(lambda tg=tg: fn(tg), 3) for tg in targets)

    out["potentials.lateral_far_ms"] = per_target_ms(
        lambda tg: cx.double_layer(mesh2, A2, lateral, tg),
        [(0.3 * d, 0.5) for d in dirs])
    out["potentials.lateral_near_ms"] = per_target_ms(
        lambda tg: cx.double_layer(mesh2, A2, lateral, tg),
        [((1.0 - gap) * d, 0.5) for d in dirs])
    # t = 1e-3 keeps the Gaussian inside the disk (Gauss-Hermite rule);
    # t = 0.5 spreads it past the wall (mesh rule)
    out["potentials.cap_gh_ms"] = per_target_ms(
        lambda tg: cx.cap_potential(mesh2, A2, cap, tg),
        [(0.1 * d, 1e-3) for d in dirs])
    out["potentials.cap_mesh_ms"] = per_target_ms(
        lambda tg: cx.cap_potential(mesh2, A2, cap, tg),
        [(0.3 * d, 0.5) for d in dirs])

    K = mesh2.tnodes.shape[0]
    node = int(rng.integers(0, mesh2.n_boundary)) * K + K // 2
    out["potentials.jump_probe_ms"] = 1e3 * _median_time(
        lambda: cx.jump_probe(mesh2, A2, lateral, node, "double"), 3)
    return out
