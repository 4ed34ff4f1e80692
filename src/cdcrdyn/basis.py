"""Modal basis functions and the quadrature machinery behind every assembly.

The basis spans polynomials (s/L)^1 .. (s/L)^m, so every basis function
vanishes at the clamped end s = 0.  The orthonormal kind is built in exact
rational arithmetic (the raw monomial Gram matrix is Hilbert-like and float
orthogonalization would lose most digits by m = 8).  With x = s/L its rows
are the Gram-Schmidt orthogonalization of x^1..x^m on [0, 1], i.e. the rows
of L^-1 in the LDL^T factorization G = L D L^T of the Gram matrix
G_ij = <x^(i+1), x^(j+1)> = 1/(i+j+3), with D their squared norms.  Both
are unique, so they are taken in closed form: writing the n-th row as
x q_n(x), q_n is the monic shifted Jacobi polynomial P_n^(0,2)(2x - 1),
orthogonal under the weight x^2, with coefficients and norms given by
factorials.  That costs O(m^2) rationals against O(m^4) for classical
Gram-Schmidt, and the conversion to Legendre coefficients runs in O(m^3)
integer operations over common denominators; float values are the correctly
rounded quotients, so every coefficient equals the Gram-Schmidt one bit for
bit.

Quadrature is composite Gauss-Legendre.  Besides plain integration the grid
provides forward and backward cumulative operators: matrices F and B with
(F f)_k ~ integral of f over [0, s_k] and (B f)_k ~ integral over [s_k, L].
Within a panel the partial integral is taken on the Lagrange interpolant of
the panel nodes, so cumulative values keep spectral accuracy; that reference
panel rule is computed once per point count and shared.  All nested
double integrals in the dynamic assemblies reduce to one forward and one
backward pass, linear in the node count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .geometry import check_arc_length

BASIS_KINDS = ("raw_monomial", "orthonormal")


def _orthogonal_rows(m: int):
    """Gram-Schmidt rows over {x^1..x^m} and their squared norms, exact rationals.

    Row n is monic in x^(n+1) and holds x q_n(x), q_n(x) = P_n^(0,2)(2x - 1)
    scaled to be monic: the rows of L^-1 and the diagonal D in G = L D L^T.
    """
    f = math.factorial
    rows, norms = [], []
    for n in range(m):
        den = f(2 * n + 2)
        rows.append([Fraction((-1) ** (n - k) * math.comb(n, k) * f(n + k + 2) * f(n + 2),
                              f(k + 2) * den) for k in range(n + 1)]
                    + [Fraction(0)] * (m - n - 1))
        norms.append(Fraction((f(n) * f(n + 2)) ** 2, (2 * n + 3) * den ** 2))
    return rows, norms


def _legendre_rows(mono_rows, scales):
    """Exact monomial rows over x^0..x^{m-1} -> float Legendre coefficient matrix.

    Rounding ill-conditioned monomial coefficients to float costs ~1e-10 of
    orthogonality at m = 10; the Legendre representation keeps coefficients
    O(1), so conversion must happen before leaving exact arithmetic.  The
    shifted-Legendre coefficients of x^n on [0, 1],
    (2k+1) n!^2 / ((n-k)! (n+k+1)!), are integers over (2m-1)!; with each row
    on its own common denominator the sums are integer, and every entry is
    the correctly rounded quotient, as float() of the reduced fraction is.
    """
    m = len(mono_rows)
    f = math.factorial
    top = f(2 * m - 1)
    table = [[(2 * k + 1) * f(n) ** 2 * top // (f(n - k) * f(n + k + 1))
              for k in range(n + 1)] for n in range(m)]
    out = np.zeros((m, m))
    for j, row in enumerate(mono_rows):
        den = math.lcm(*(c.denominator for c in row))
        acc = [0] * m
        for n, c in enumerate(row):
            if c == 0:
                continue
            num = c.numerator * (den // c.denominator)
            for k, a in enumerate(table[n]):
                acc[k] += num * a
        out[j] = [v / (den * top) for v in acc]
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
            rows = [[Fraction(int(k == j)) for k in range(order)] for j in range(order)]
            scales = np.ones(order)
        else:
            rows, norms = _orthogonal_rows(order)
            scales = np.array([1.0 / math.sqrt(float(d) * length) for d in norms])
        # q_j = phi_j / x lives over x^0..x^{m-1}: same coefficient rows
        self._legq = _legendre_rows(rows, scales).T     # (deg+1, m) for legval
        self._legq_d = (np.polynomial.legendre.legder(self._legq, axis=0)
                        if order > 1 else np.zeros((1, order)))

    def _legval(self, u, coef):
        return np.moveaxis(np.polynomial.legendre.legval(u, coef, tensor=True), 0, -1)

    def eval(self, s):
        """Basis values; shape (..., m)."""
        s = check_arc_length(s, self.length)
        x = s / self.length
        return x[..., None] * self._legval(2.0 * x - 1.0, self._legq)

    def deriv(self, s):
        """Spatial derivatives d(phi_j)/ds; shape (..., m)."""
        return self.eval_and_deriv(s)[1]

    def eval_and_deriv(self, s):
        """Basis values and their derivatives from one evaluation of q and dq/dx."""
        s = check_arc_length(s, self.length)
        x = s / self.length
        u = 2.0 * x - 1.0
        q = self._legval(u, self._legq)
        dq = 2.0 * self._legval(u, self._legq_d)      # d/dx via u = 2x - 1
        return x[..., None] * q, (q + x[..., None] * dq) / self.length


def stacked_product(op, f):
    """op @ f for one vector f, or for every vector along the last axis of a stack.

    Each product has the bits ``op @ f`` gives for that vector alone, so a
    stacked pass over recorded samples reproduces a per-sample loop exactly.
    """
    return np.matmul(op, np.asarray(f, dtype=float)[..., None])[..., 0][()]


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
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


@functools.cache
def _panel_rule(points: int):
    """Gauss-Legendre nodes and weights on [-1, 1] and their partial-panel
    matrix, computed once per point count and returned read-only."""
    x, wref = np.polynomial.legendre.leggauss(points)
    rule = (x, wref, _partial_panel_matrix(x))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def make_quadrature(panels: int, points_per_panel: int, length: float) -> QuadratureGrid:
    """Composite Gauss-Legendre grid over [0, L] with cumulative operators."""
    if panels < 1 or points_per_panel < 2:
        raise ConfigurationError("need at least 1 panel and 2 points per panel")
    if length <= 0:
        raise ConfigurationError("quadrature length must be positive")
    x, wref, part = _panel_rule(int(points_per_panel))
    width = length / panels
    half = 0.5 * width
    panel_w = half * wref
    nodes = (np.arange(panels)[:, None] * width + half * (x + 1.0)).ravel()
    weights = np.tile(panel_w, panels)
    panel = np.repeat(np.arange(panels), points_per_panel)
    # whole earlier panels, then the partial integral within the node's own panel
    fwd = np.where(panel[:, None] > panel, weights, 0.0)
    own = np.arange(panels)
    fwd.reshape(panels, points_per_panel, panels, points_per_panel)[own, :, own, :] = half * part
    bwd = weights[None, :] - fwd
    return QuadratureGrid(nodes=nodes, weights=weights, fwd=fwd, bwd=bwd)
