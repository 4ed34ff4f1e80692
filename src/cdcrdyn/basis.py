"""Modal basis functions and the quadrature machinery behind every assembly.

The basis spans polynomials (s/L)^1 .. (s/L)^m, so every basis function
vanishes at the clamped end s = 0.  The orthonormal kind applies Gram-Schmidt
in exact rational arithmetic (the raw monomial Gram matrix is Hilbert-like and
float orthogonalization would lose most digits by m = 8).

Quadrature is composite Gauss-Legendre.  Besides plain integration the grid
provides forward and backward cumulative operators: matrices F and B with
(F f)_k ~ integral of f over [0, s_k] and (B f)_k ~ integral over [s_k, L].
Within a panel the partial integral is taken on the Lagrange interpolant of
the panel nodes, so cumulative values keep spectral accuracy.  All nested
double integrals in the dynamic assemblies reduce to one forward and one
backward pass, linear in the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DomainError

BASIS_KINDS = ("raw_monomial", "orthonormal")


def _inner_unit(a, b):
    """Exact <p, q> on [0, 1] for coefficient lists over x^1..x^m."""
    acc = Fraction(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            acc += ai * bj * Fraction(1, i + j + 3)
    return acc


def _orthogonal_rows(m: int):
    """Unnormalized Gram-Schmidt rows over {x^1..x^m}, exact rationals."""
    ortho = []
    for j in range(m):
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for u in ortho:
            coef = _inner_unit(v, u) / _inner_unit(u, u)
            v = [a - coef * b for a, b in zip(v, u)]
        ortho.append(v)
    return ortho


def _shifted_legendre_table(max_power: int):
    """a[n][k]: exact shifted-Legendre coefficients of x^n on [0, 1]."""
    table = []
    for n in range(max_power + 1):
        fact_n2 = Fraction(math.factorial(n)) ** 2
        row = [Fraction(2 * k + 1) * fact_n2
               / (math.factorial(n - k) * math.factorial(n + k + 1))
               for k in range(n + 1)]
        table.append(row)
    return table


def _legendre_rows(mono_rows, scales):
    """Exact monomial rows over x^0..x^{m-1} -> float Legendre coefficient matrix.

    Rounding ill-conditioned monomial coefficients to float costs ~1e-10 of
    orthogonality at m = 10; the Legendre representation keeps coefficients
    O(1), so conversion must happen before leaving exact arithmetic.
    """
    m = len(mono_rows)
    table = _shifted_legendre_table(m - 1) if m else []
    out = np.zeros((m, m))
    for j, row in enumerate(mono_rows):
        acc = [Fraction(0)] * m
        for n, c in enumerate(row):
            if c == 0:
                continue
            for k, a in enumerate(table[n]):
                acc[k] += c * a
        out[j] = [float(v) for v in acc]
        out[j] *= scales[j]
    return out


class ModalBasis:
    """Polynomial modal basis on [0, L] with phi_j(0) = 0 for every mode.

    Internally phi_j(s) = x * q_j(x) with x = s/L; q_j is held as a shifted
    Legendre series, which keeps evaluation stable up to m = 10 and makes
    phi_j(0) = 0 exact by construction.
    """

    def __init__(self, order: int, length: float, kind: str = "orthonormal"):
        if order < 1:
            raise ConfigurationError("basis order must be at least 1")
        if length <= 0:
            raise ConfigurationError("basis length must be positive")
        if kind not in BASIS_KINDS:
            raise ConfigurationError(f"unknown basis kind {kind!r}")
        self.order = order
        self.length = length
        self.kind = kind
        if kind == "raw_monomial":
            rows = [[Fraction(1) if k == j else Fraction(0) for k in range(order)]
                    for j in range(order)]
            scales = np.ones(order)
            self.coeffs = np.eye(order)
        else:
            exact = _orthogonal_rows(order)
            scales = np.array([1.0 / math.sqrt(float(_inner_unit(u, u)) * length)
                               for u in exact])
            rows = exact
            self.coeffs = np.array([[float(c) for c in u] for u in exact]) * scales[:, None]
        # q_j = phi_j / x lives over x^0..x^{m-1}: same coefficient rows
        self._legq = _legendre_rows(rows, scales).T     # (deg+1, m) for legval
        self._legq_d = (np.polynomial.legendre.legder(self._legq, axis=0)
                        if order > 1 else np.zeros((1, order)))

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        tol = 1e-12 * max(1.0, self.length)
        if np.any(s < -tol) or np.any(s > self.length + tol):
            raise DomainError(f"arc length outside [0, {self.length}]")
        return s

    def _q_and_deriv(self, x):
        u = 2.0 * x - 1.0
        q = np.moveaxis(np.polynomial.legendre.legval(u, self._legq, tensor=True), 0, -1)
        dq = np.moveaxis(np.polynomial.legendre.legval(u, self._legq_d, tensor=True), 0, -1)
        return q, 2.0 * dq    # d/dx via u = 2x - 1

    def eval(self, s):
        """Basis values; shape (..., m)."""
        s = self._check(s)
        x = s / self.length
        q, _ = self._q_and_deriv(x)
        return x[..., None] * q

    def deriv(self, s):
        """Spatial derivatives d(phi_j)/ds; shape (..., m)."""
        s = self._check(s)
        x = s / self.length
        q, dq = self._q_and_deriv(x)
        return (q + x[..., None] * dq) / self.length


def stacked_product(op, f):
    """op @ f for one vector f, or for every vector along the last axis of a stack.

    Each product has the bits ``op @ f`` gives for that vector alone, so a
    stacked pass over recorded samples reproduces a per-sample loop exactly.
    """
    return np.matmul(op, np.asarray(f, dtype=float)[..., None])[..., 0][()]


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    length: float
    panels: int
    points_per_panel: int
    nodes: np.ndarray       # (n,), strictly inside (0, L)
    weights: np.ndarray     # (n,), positive, summing to L
    fwd: np.ndarray         # (n, n): (fwd @ f)_k = integral of f over [0, s_k]
    bwd: np.ndarray         # (n, n): (bwd @ f)_k = integral of f over [s_k, L]

    def integrate(self, f):
        """Integral of f over [0, L], along the last axis of f."""
        return stacked_product(self.weights, f)

    def cumulative_from_start(self, f):
        """Integral of f over [0, s_k], along the last axis of f."""
        return stacked_product(self.fwd, f)


def _partial_panel_matrix(x: np.ndarray) -> np.ndarray:
    """P[i, j] = integral of the j-th Lagrange basis over [-1, x_i]."""
    p = len(x)
    vand = np.vander(x, p, increasing=True)           # vand[i, k] = x_i^k
    lag = np.linalg.inv(vand)                          # lag[k, j]: coeffs of l_j
    k = np.arange(p)
    upper = np.power(x[:, None], k + 1)                # x_i^(k+1)
    lower = np.power(-1.0, k + 1)
    return ((upper - lower) / (k + 1)) @ lag


def make_quadrature(panels: int, points_per_panel: int, length: float) -> QuadratureGrid:
    """Composite Gauss-Legendre grid over [0, L] with cumulative operators."""
    if panels < 1 or points_per_panel < 2:
        raise ConfigurationError("need at least 1 panel and 2 points per panel")
    if length <= 0:
        raise ConfigurationError("quadrature length must be positive")
    x, wref = np.polynomial.legendre.leggauss(points_per_panel)
    part = _partial_panel_matrix(x)
    width = length / panels
    half = 0.5 * width
    n = panels * points_per_panel
    nodes = np.empty(n)
    weights = np.empty(n)
    fwd = np.zeros((n, n))
    panel_w = half * wref
    for p in range(panels):
        rows = slice(p * points_per_panel, (p + 1) * points_per_panel)
        nodes[rows] = p * width + half * (x + 1.0)
        weights[rows] = panel_w
        for q in range(p):
            fwd[rows, q * points_per_panel:(q + 1) * points_per_panel] = panel_w
        fwd[rows, rows] = half * part
    bwd = weights[None, :] - fwd
    return QuadratureGrid(length=length, panels=panels,
                          points_per_panel=points_per_panel,
                          nodes=nodes, weights=weights, fwd=fwd, bwd=bwd)
