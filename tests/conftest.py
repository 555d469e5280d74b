import numpy as np
import pytest

import calorix as cx

# test matrices: identity and a coupled SPD per dimension
ENTRIES = {
    "I1": [[1.0]],
    "I2": [[1.0, 0.0], [0.0, 1.0]],
    "B2": [[2.0, 1.0], [1.0, 2.0]],
    "D3": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
    "C3": [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]],
}
# the matrix of the n = 3 completeness ladder
LADDER_A = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]]


@pytest.fixture(scope="session")
def I1():
    return cx.make_coefficients(1, ENTRIES["I1"])


@pytest.fixture(scope="session")
def I2():
    return cx.make_coefficients(2, ENTRIES["I2"])


@pytest.fixture(scope="session")
def B2():
    return cx.make_coefficients(2, ENTRIES["B2"])


@pytest.fixture(scope="session")
def D3():
    return cx.make_coefficients(3, ENTRIES["D3"])


@pytest.fixture(scope="session")
def C3():
    return cx.make_coefficients(3, ENTRIES["C3"])


@pytest.fixture(scope="session")
def I3():
    return cx.make_coefficients(3, np.eye(3).tolist())


@pytest.fixture(scope="session")
def disk():
    return cx.CrossSection.disk(1.0)


@pytest.fixture(scope="session")
def ellipse():
    return cx.CrossSection.ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def disk_mesh_I(disk, I2):
    return cx.build_mesh(disk, I2, 1.0, 96, 48, 24)


@pytest.fixture(scope="session")
def disk_mesh_B(disk, B2):
    return cx.build_mesh(disk, B2, 1.0, 96, 48, 24)


@pytest.fixture(scope="session")
def ellipse_mesh_I(ellipse, I2):
    return cx.build_mesh(ellipse, I2, 1.0, 160, 48, 24)


@pytest.fixture(scope="session")
def ellipse_mesh_B(ellipse, B2):
    return cx.build_mesh(ellipse, B2, 1.0, 160, 48, 24)


@pytest.fixture(scope="session")
def solver_mesh(disk, I2):
    # T = 0.5 keeps the exponential data mild over the cylinder
    return cx.build_mesh(disk, I2, 0.5, 96, 48, 24)


@pytest.fixture(scope="session")
def ball_mesh(I3):
    return cx.build_mesh(cx.CrossSection.ball(1.0), I3, 1.0, 48, 32, 16)


def on_circle(phi):
    """Unit directions (cos phi, sin phi) of polar angles phi."""
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def unit_density(mesh, region):
    """The density 1 on one boundary region, with its generator."""
    return cx.DensityField.from_function(mesh, region, lambda p, t, nu: np.ones(p.shape[0]))


def interior_probes(cs, rng, count, frac=(0.15, 0.8)):
    """Random points strictly inside a star-shaped cross-section."""
    out = []
    n = cs.n
    for _ in range(count):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        out.append(rng.uniform(*frac) * float(cs.radius(d[None, :])[0]) * d)
    return out


def exterior_probes(cs, rng, count, frac=(1.3, 1.8)):
    return interior_probes(cs, rng, count, frac)


def shell_kernel_bound(A, x, rho_max, tau):
    """Error bound of the shell kernel against the direct G, relative to
    G's maximum.  Each q, expanded or of the rounded x - y, sums at most
    n^2 + n + 2 <= 14 rounded terms of size <= (|x| + rho_max)^2 ||A^-1||,
    so the two differ by at most 32 eps times that; exp(-q/(4 tau)) turns
    it into that over 4 tau relative to G's peak, and the + 1 covers the
    roundoff of exp and of the normalisation there."""
    size = (np.linalg.norm(x) + rho_max) ** 2 * np.linalg.norm(A.inv, 2)
    return 32.0 * np.finfo(float).eps * (size / (4.0 * tau) + 1.0)
