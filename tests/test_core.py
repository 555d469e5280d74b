import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calorix as cx
from calorix.errors import (
    DimensionTooSmall,
    NotPositiveDefinite,
    NotSymmetric,
)

from conftest import ENTRIES
from fdtools import (
    FD_STEP,
    heat_operator_residual,
    reference_gaussian,
    richardson_derivative,
)


# -- coefficient matrices ---------------------------------------------------

def test_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        cx.make_coefficients(2, [[1.0, 0.5], [0.4, 1.0]])


def test_rejects_indefinite():
    # symmetric with eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        cx.make_coefficients(2, [[1.0, 2.0], [2.0, 1.0]])


def test_det_inv_against_numpy(C3):
    assert C3.det == pytest.approx(float(np.linalg.det(C3.a)), rel=1e-13)
    assert np.allclose(C3.inv, np.linalg.inv(C3.a), atol=1e-13)
    z = np.array([[0.3, -1.2, 0.7]])
    direct = float(z[0] @ np.linalg.inv(C3.a) @ z[0])
    assert C3.qform_inv(z)[0] == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("mat", ["B2", "C3"])
def test_qform_inv_matches_three_operand_einsum(mat, request):
    # on batches the i-major sum reproduces the einsum bit for bit; a single
    # point may differ in the last bit
    A = request.getfixturevalue(mat)
    n = A.n
    rng = np.random.default_rng(7)
    shapes = {2: [(64, 2), (7, 5, 2)], 3: [(1152, 3), (18432, 3)]}[n]
    for shape in shapes:
        mixed = 10.0 ** rng.uniform(-8, 2, size=shape[:-1] + (1,))
        for mag in (1e-8, 1e-4, 1.0, 1e2, mixed):
            z = rng.normal(size=shape) * mag
            ref = np.einsum("...i,ij,...j->...", z, A.inv, z)
            got = A.qform_inv(z)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
    for _ in range(200):
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2)
        for point in (z, z[None, :]):
            ref = np.einsum("...i,ij,...j->...", point, A.inv, point)
            got = A.qform_inv(point)
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 4e-16 * np.abs(ref))


def test_entries_exact_are_fractions(B2):
    exact = B2.entries_exact
    assert exact[0][1] == Fraction(1)
    assert all(isinstance(v, Fraction) for row in exact for v in row)


def test_entries_exact_built_once(C3):
    first = C3.entries_exact
    again = C3.entries_exact
    assert again == first and again is first
    assert isinstance(again, tuple) and all(isinstance(row, tuple) for row in again)
    assert all(isinstance(v, Fraction) for row in again for v in row)


# -- fundamental solution ---------------------------------------------------

def test_matches_reference_formula(B2, C3):
    rng = np.random.default_rng(0)
    for A, key in ((B2, "B2"), (C3, "C3")):
        for _ in range(20):
            z = rng.normal(size=A.n)
            tau = rng.uniform(0.05, 2.0)
            ref = reference_gaussian(ENTRIES[key], z, tau)
            got = float(cx.fundamental_solution(A, z, tau))
            assert got == pytest.approx(ref, rel=1e-13)


def test_frozen_value(I2):
    # (4 pi t)^-1 exp(-|z|^2/(4t)) at z=(1,0), t=0.25: exp(-1)/pi
    got = float(cx.fundamental_solution(I2, np.array([1.0, 0.0]), 0.25))
    assert got == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-15)


def test_vanishes_for_nonpositive_time(B2):
    z = np.array([0.3, 0.4])
    assert float(cx.fundamental_solution(B2, z, 0.0)) == 0.0
    assert float(cx.fundamental_solution(B2, z, -1.0)) == 0.0
    taus = np.array([-1.0, 0.0, 0.5])
    vals = cx.fundamental_solution(B2, np.tile(z, (3, 1)), taus)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


def test_extreme_arguments_do_not_overflow(I2):
    # the clipped exponent saturates far values near 1e-305 instead of
    # underflowing; nothing raises under strict floating point errors
    with np.errstate(all="raise"):
        far = float(cx.fundamental_solution(I2, np.array([1e4, 0.0]), 1e-6))
        tiny = float(cx.fundamental_solution(I2, np.array([0.0, 0.0]), 1e-300))
    assert far < 1e-290
    assert math.isfinite(tiny) and tiny > 0.0


def test_broadcast_shapes(B2):
    z = np.random.default_rng(1).normal(size=(7, 2))
    taus = np.full(7, 0.3)
    out = cx.fundamental_solution(B2, z, taus)
    assert out.shape == (7,)
    single = float(cx.fundamental_solution(B2, z[0], 0.3))
    assert out[0] == pytest.approx(single, rel=1e-15)


def test_satisfies_parabolic_equation(B2, C3):
    for A, key in ((B2, "B2"), (C3, "C3")):
        fn = lambda x, t: float(cx.fundamental_solution(A, x, t))
        z = np.full(A.n, 0.5)
        res = heat_operator_residual(fn, ENTRIES[key], z, 0.4)
        assert abs(res) < 1e-6 * max(1.0, fn(z, 0.4))


# -- conormal kernels -------------------------------------------------------

def test_conormal_source_matches_directional_derivative(B2):
    rng = np.random.default_rng(3)
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    nu = rng.normal(size=2)
    nu /= np.linalg.norm(nu)
    tau = 0.7
    step = B2.a @ nu

    def along(s):
        return float(cx.fundamental_solution(B2, x - (y + s * step), tau))

    fd = richardson_derivative(along)
    ker = float(cx.conormal_kernel_source(B2, x[None, :], y[None, :],
                                          nu[None, :], tau)[0])
    assert ker == pytest.approx(fd, rel=1e-8)


def test_conormal_target_is_negated_frozen_direction(B2):
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=2), rng.normal(size=2)
    nu0 = np.array([1.0, 0.0])
    tau = 0.5
    src = float(cx.conormal_kernel_source(B2, x[None, :], y[None, :],
                                          nu0[None, :], tau)[0])
    tgt = float(cx.conormal_kernel_target(B2, x[None, :], y[None, :],
                                          nu0, tau)[0])
    assert tgt == pytest.approx(-src, rel=1e-15)


# -- caloric exponential ----------------------------------------------------

def test_exponential_solves_both_equations(B2):
    xi = np.array([0.3, -0.2])
    for sign, adjoint in ((+1, False), (-1, True)):
        field = cx.CaloricExponentialField(B2, xi, sign=sign)
        fn = lambda x, t: float(field.value(x, t)[0])
        res = heat_operator_residual(fn, ENTRIES["B2"], np.array([0.2, 0.4]),
                                     0.3, adjoint=adjoint)
        assert abs(res) < 1e-6


def test_exponential_frozen_value(I2):
    # exp(<x, xi> + t |xi|^2) at x=(1,1), xi=(1,2), t=0.1: exp(3.5)
    val = cx.CaloricExponentialField(I2, np.array([1.0, 2.0])).value(np.array([1.0, 1.0]), 0.1)
    assert val.shape == (1,)
    assert float(val[0]) == pytest.approx(math.exp(3.5), rel=1e-14)


# -- target normalisation ---------------------------------------------------

def _exp_field(A):
    return cx.CaloricExponentialField(A, [0.3, -0.2])


def _conormal_single_layer(mesh, A, p):
    # the operator takes its target from CylinderMesh.offset_point; hand it p
    mesh.offset_point = lambda node, h: p
    K = mesh.tnodes.shape[0]
    phi = cx.DensityField.from_function(mesh, "sigma3", lambda q, s, nu: 1.0 + q[:, 0] * s)
    return cx.conormal_derivative_single_layer(mesh, A, phi, 3 * K + K // 2, 0.1)


TARGET_USERS = {
    "double_layer": lambda mesh, A, p: cx.double_layer(
        mesh, A, cx.DensityField.constant(mesh, "sigma3"), p),
    "single_layer": lambda mesh, A, p: cx.single_layer(
        mesh, A, cx.DensityField.constant(mesh, "sigma3"), p),
    "double_layer_star": lambda mesh, A, p: cx.double_layer_star(
        mesh, A, cx.DensityField.constant(mesh, "sigma3"), p),
    "single_layer_star": lambda mesh, A, p: cx.single_layer_star(
        mesh, A, cx.DensityField.constant(mesh, "sigma3"), p),
    "conormal_derivative_single_layer": _conormal_single_layer,
    "cap_potential": lambda mesh, A, p: cx.cap_potential(
        mesh, A, cx.DensityField.constant(mesh, "sigma2"), p),
    "cap_potential_star": lambda mesh, A, p: cx.cap_potential_star(
        mesh, A, cx.DensityField.constant(mesh, "sigma1"), p),
    "representation_values": lambda mesh, A, p: cx.representation_values(
        mesh, A, [cx.ConstantField(), _exp_field(A)], "H")(p),
    "representation_discrepancy": lambda mesh, A, p: cx.representation_discrepancy(
        mesh, _exp_field(A), p, 0.5),
    "CylinderMesh.locate": lambda mesh, A, p: mesh.locate(p),
    "CylinderMesh.wall_frame": lambda mesh, A, p: mesh.wall_frame(p),
    "moment_identity_check": lambda mesh, A, p: cx.moment_identity_check(
        A, (1, 2), p, resolution=20),
}


@pytest.mark.parametrize("name", sorted(TARGET_USERS))
def test_point_and_pair_targets_agree(name, disk, B2):
    # a target is a plain (x, t) pair: x an ndarray or a list, t a float or
    # an int; T = 2 puts the int time 1 inside the cylinder
    x, t = np.array([0.3, -0.2]), 1
    use = TARGET_USERS[name]
    got = [use(cx.build_mesh(disk, B2, 2.0, 32, 8, 6), B2, target)
           for target in ((x, float(t)), (x, t), (list(x), t))]
    assert got[1] == got[0]
    assert got[2] == got[0]


# -- elliptic companions ----------------------------------------------------

def test_elliptic_fundamental_classical_value(I3):
    # isotropic n=3: s(x,y) = -1/(4 pi |x-y|)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 0.0])
    got = float(cx.elliptic_fundamental(I3, x[None, :], y[None, :])[0])
    assert got == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-13)


def test_elliptic_conormal_matches_derivative(C3):
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=3), rng.normal(size=3) + 3.0
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    step = C3.a @ nu

    def along(s):
        return float(cx.elliptic_fundamental(C3, x[None, :],
                                             (y + s * step)[None, :])[0])

    fd = richardson_derivative(along)
    ker = float(cx.elliptic_conormal_kernel(C3, x[None, :], y[None, :],
                                            nu[None, :])[0])
    assert ker == pytest.approx(fd, rel=1e-7)


def test_elliptic_needs_three_dimensions(I2):
    with pytest.raises(DimensionTooSmall):
        cx.elliptic_fundamental(I2, np.zeros((1, 2)), np.ones((1, 2)))


# -- property: reference agreement over random SPD matrices -----------------

@settings(max_examples=20, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.floats(0.05, 2.0))
def test_gaussian_matches_reference_random_spd(c, d1, d2, tau):
    # A = diag + c sqrt(d1 d2) coupling keeps positive definiteness
    off = c * math.sqrt(d1 * d2) * 0.99
    entries = [[d1, off], [off, d2]]
    A = cx.make_coefficients(2, entries)
    z = np.array([0.7, -0.4])
    assert float(cx.fundamental_solution(A, z, tau)) == pytest.approx(
        reference_gaussian(entries, z, tau), rel=1e-12)
