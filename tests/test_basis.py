import math

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.errors import ConfigurationError, DomainError


def test_raw_monomial_values():
    basis = cd.ModalBasis(3, 0.4, "raw_monomial")
    assert np.allclose(basis.eval(0.0), 0.0)
    assert np.allclose(basis.eval(0.4), [1.0, 1.0, 1.0])
    basis2 = cd.ModalBasis(2, 0.4, "raw_monomial")
    assert np.allclose(basis2.eval(0.2), [0.5, 0.25])


def test_raw_monomial_derivatives():
    basis = cd.ModalBasis(2, 0.4, "raw_monomial")
    assert np.allclose(basis.deriv(0.0), [1 / 0.4, 0.0])
    basis1 = cd.ModalBasis(1, 0.4, "raw_monomial")
    assert np.allclose(basis1.deriv(0.4), [1 / 0.4])


@pytest.mark.parametrize("kind", ["raw_monomial", "orthonormal"])
def test_derivative_matches_finite_difference(kind, rng):
    basis = cd.ModalBasis(6, 0.4, kind)
    s = rng.uniform(1e-3, 0.4 - 1e-3, 100)
    eps = 1e-7
    fd = (basis.eval(s + eps) - basis.eval(s - eps)) / (2 * eps)
    scale = np.abs(basis.deriv(s)).max()
    assert np.abs(basis.deriv(s) - fd).max() < 1e-6 * scale


@pytest.mark.parametrize("kind", ["raw_monomial", "orthonormal"])
def test_clamped_end_is_exactly_zero(kind):
    basis = cd.ModalBasis(8, 0.4, kind)
    assert np.all(basis.eval(0.0) == 0.0)


def test_orthonormal_gram_identity_up_to_m10():
    # rich grid so the measurement error stays below the orthogonality bound
    grid = cd.make_quadrature(30, 10, 0.4)
    for m in (2, 4, 6, 8, 10):
        basis = cd.ModalBasis(m, 0.4)
        phi = basis.eval(grid.nodes)
        gram = phi.T @ (grid.weights[:, None] * phi)
        assert np.abs(gram - np.eye(m)).max() < 1e-10, m


def test_orthonormal_gram_well_conditioned_m6(grid):
    basis = cd.ModalBasis(6, 0.4)
    phi = basis.eval(grid.nodes)
    gram = phi.T @ (grid.weights[:, None] * phi)
    assert np.linalg.cond(gram) <= 10.0
    # the point of orthonormalization: the raw monomial Gram is near-singular
    raw = cd.ModalBasis(6, 0.4, "raw_monomial").eval(grid.nodes)
    raw_gram = raw.T @ (grid.weights[:, None] * raw)
    assert np.linalg.cond(raw_gram) > 1e6


def test_basis_linear_independence():
    for kind in ("raw_monomial", "orthonormal"):
        basis = cd.ModalBasis(6, 0.4, kind)
        assert np.linalg.matrix_rank(basis.coeffs) == 6


def test_quadrature_cubic_exact():
    grid = cd.make_quadrature(1, 2, 1.0)
    assert grid.integrate(grid.nodes**3) == pytest.approx(0.25, abs=1e-15)


def test_quadrature_weight_sum(grid):
    assert abs(grid.weights.sum() - 0.4) < 1e-12
    assert np.all(grid.weights > 0)
    assert np.all((grid.nodes > 0) & (grid.nodes < 0.4))


def test_quadrature_sine_integral():
    grid = cd.make_quadrature(4, 5, 0.4)
    got = grid.integrate(np.sin(10 * grid.nodes))
    assert abs(got - (1 - math.cos(4.0)) / 10) < 1e-10


def test_quadrature_monomial_products_match_symbolic(grid):
    basis = cd.ModalBasis(6, 0.4, "raw_monomial")
    phi = basis.eval(grid.nodes)
    for i in range(6):
        for j in range(6):
            exact = 0.4 / (i + j + 3)
            got = grid.integrate(phi[:, i] * phi[:, j])
            assert abs(got - exact) < 1e-12


def test_nested_upper_integral_constant(grid):
    g = grid.bwd @ np.ones_like(grid.nodes)
    assert np.allclose(g, 0.4 - grid.nodes, atol=1e-13)
    # value at the clamped end equals the full integral
    assert grid.integrate(np.ones_like(grid.nodes)) == pytest.approx(0.4, abs=1e-12)


def test_nested_upper_integral_linear():
    grid = cd.make_quadrature(16, 5, 1.0)
    g = grid.bwd @ grid.nodes
    assert np.abs(g - (1 - grid.nodes**2) / 2).max() < 1e-10


def test_nested_upper_integral_monotone(grid, rng):
    # smooth nonnegative integrands: the per-panel interpolants stay positive
    for _ in range(5):
        a, b, w = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.4), rng.uniform(1.0, 20.0)
        f = a + b * np.sin(w * grid.nodes)
        assert np.all(f >= 0)
        g = grid.bwd @ f
        assert np.all(np.diff(g) <= 1e-12)


def test_cumulative_operators_are_complementary(grid, rng):
    f = rng.normal(size=grid.nodes.size)
    total = grid.integrate(f)
    assert np.allclose(grid.cumulative_from_start(f) + grid.bwd @ f, total)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        cd.make_quadrature(0, 5, 0.4)
    with pytest.raises(ConfigurationError):
        cd.make_quadrature(4, 1, 0.4)
    with pytest.raises(ConfigurationError):
        cd.ModalBasis(0, 0.4)
    with pytest.raises(ConfigurationError):
        cd.ModalBasis(4, 0.4, "fourier")


def test_basis_domain_error():
    basis = cd.ModalBasis(4, 0.4)
    with pytest.raises(DomainError):
        basis.eval(0.5)
    with pytest.raises(DomainError):
        basis.deriv(-0.1)
