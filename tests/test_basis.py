import math
from fractions import Fraction

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.basis import _legendre_rows, _orthogonal_rows, _panel_rule
from cdcrdyn.errors import ConfigurationError, DomainError


def _inner_unit(a, b):
    """Exact <x p, x q> on [0, 1] for coefficient lists over x^0..x^(m-1)."""
    return sum((ai * bj * Fraction(1, i + j + 3) for i, ai in enumerate(a)
                for j, bj in enumerate(b)), Fraction(0))


def _gram_schmidt_rows(m):
    """Reference: classical Gram-Schmidt over x^1..x^m, exact rationals."""
    ortho = []
    for j in range(m):
        v = [Fraction(int(k == j)) for k in range(m)]
        for u in ortho:
            coef = _inner_unit(v, u) / _inner_unit(u, u)
            v = [a - coef * b for a, b in zip(v, u)]
        ortho.append(v)
    return ortho


def _legendre_reference(rows, scales):
    """Reference: Legendre coefficients summed as Fractions, then rounded."""
    m = len(rows)
    out = np.zeros((m, m))
    for j, row in enumerate(rows):
        acc = [Fraction(0)] * m
        for n, c in enumerate(row):
            for k in range(n + 1):
                acc[k] += c * Fraction((2 * k + 1) * math.factorial(n) ** 2,
                                       math.factorial(n - k) * math.factorial(n + k + 1))
        out[j] = [float(v) for v in acc]
        out[j] *= scales[j]
    return out


@pytest.mark.parametrize("m", range(1, 13))
def test_orthogonal_rows_equal_gram_schmidt(m):
    rows, norms = _orthogonal_rows(m)
    assert rows == _gram_schmidt_rows(m)
    assert norms == [_inner_unit(u, u) for u in rows]


@pytest.mark.parametrize("m", range(1, 13))
def test_orthogonal_rows_invert_the_ldlt_factor(m):
    # R G R^T = diag(D) with R unit lower triangular: R = L^-1 in G = L D L^T
    rows, norms = _orthogonal_rows(m)
    gram = [[Fraction(1, i + j + 3) for j in range(m)] for i in range(m)]
    for i, row in enumerate(rows):
        assert row[i] == 1 and not any(row[i + 1:])
        g_row = [sum((c * gram[a][b] for a, c in enumerate(row)), Fraction(0))
                 for b in range(m)]
        for j, other in enumerate(rows):
            got = sum((g * c for g, c in zip(g_row, other)), Fraction(0))
            assert got == (norms[i] if i == j else 0), (i, j)


@pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
def test_legendre_rows_are_the_rounded_exact_sums(m):
    rows, norms = _orthogonal_rows(m)
    scales = [1.0 / math.sqrt(float(d) * 0.4) for d in norms]
    for r, s in ((rows, scales), ([[Fraction(int(k == j)) for k in range(m)]
                                   for j in range(m)], [1.0] * m)):
        assert np.array_equal(_legendre_rows(r, s), _legendre_reference(r, s))


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


@pytest.mark.parametrize("panels, points", [(1, 2), (3, 4), (16, 5), (7, 10)])
def test_quadrature_matches_panel_loop(panels, points):
    # reference: the grid filled panel by panel
    x, wref = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (0.4 / panels)
    part = cd.make_quadrature(1, points, 2.0).fwd      # one panel of half-width 1
    n = panels * points
    nodes, weights, fwd = np.empty(n), np.empty(n), np.zeros((n, n))
    for p in range(panels):
        rows = slice(p * points, (p + 1) * points)
        nodes[rows] = p * (0.4 / panels) + half * (x + 1.0)
        weights[rows] = half * wref
        fwd[rows, :p * points] = np.tile(half * wref, p)
        fwd[rows, rows] = half * part
    grid = cd.make_quadrature(panels, points, 0.4)
    for got, want in ((grid.nodes, nodes), (grid.weights, weights), (grid.fwd, fwd),
                      (grid.bwd, weights[None, :] - fwd)):
        assert np.array_equal(got, want)


def test_ten_point_panel_rule_integrates_monomials():
    # the default grid's 10-point rule is exact to degree 19, so its cumulative
    # operators integrate s^0..s^9 to round-off: a check on the Vandermonde
    # inverse behind the partial-panel matrix at this point count
    length = 0.4
    grid = cd.make_quadrature(4, 10, length)
    s = grid.nodes
    for k in range(10):
        for op, exact in ((grid.fwd, s**(k + 1) / (k + 1)),
                          (grid.bwd, (length**(k + 1) - s**(k + 1)) / (k + 1))):
            assert np.abs(op @ s**k - exact).max() <= 1e-13 * np.abs(exact).max()


def test_panel_rule_is_shared_and_read_only():
    # one rule per point count; a grid's own arrays stay writable and unshared
    first = cd.make_quadrature(16, 5, 0.4)
    assert _panel_rule(5) is _panel_rule(5)
    assert not any(arr.flags.writeable for arr in _panel_rule(5))
    first.weights[:] = 0.0
    first.fwd[:] = 0.0
    again = cd.make_quadrature(16, 5, 0.4)
    assert again.weights.sum() == pytest.approx(0.4, abs=1e-15)
    assert np.allclose(again.fwd @ np.ones_like(again.nodes), again.nodes, atol=1e-13)


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
