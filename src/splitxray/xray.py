"""The circle X-ray transform and its helicity moments.

A homogeneous degree -2 function is integrated over the circle of lines
inside a 2-plane: given a frame (u, v), the raw integral over theta in
[0, 2pi) of f(u cos theta + v sin theta).  Uniform periodic trapezoid
nodes make the quadrature spectrally accurate for the analytic integrands
in scope.  No 1/(2pi) normalization is applied anywhere, so the flagship
closed form is exactly 2*pi/sqrt(det Gram).

A QuadratureSpec computes the cos and sin of its nodes and the weight
2pi/n once, when it is built; a transform then costs the circle points,
one evaluation of the integrand on them and one np.add.reduce times the
weight.  Frames enter as rows, a Frame's read-only (2, 4) `rows` or a
(..., 2, 4) stack, and one gate, require_degree, checks the degree of
every input.  xray_transform keeps the read-only circle points of the last
(frame.rows, spec) it integrated, so a design matrix, which integrates
every basis function over one frame before the next, builds each frame's
circle once.  Being read-only, those points also key poly.point_memo, so
the basis functions share each degree's monomial table and each radial
factor of the frame.

As a function of the frame the transform is a weight -1 field
(|det g|**-1 under right GL(2) moves), and its chart restriction is
annihilated by the John operator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULTS
from .fields import HomogeneousFunction
from .geometry import Frame, chart_frame_rows, check_frames
from .operators import worst_residual
from .poly import frozen


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform periodic trapezoid rule on [0, 2pi) with n_nodes >= 4.

    n_nodes is an int (operator.index refuses a float such as 4.5).  The
    weight 2pi/n_nodes and the node columns cos and sin are computed once,
    at construction, and the columns are read-only; every transform on this
    spec reuses them.
    """

    n_nodes: int = DEFAULTS["nodes"]
    cos: np.ndarray = field(init=False, repr=False, compare=False)
    sin: np.ndarray = field(init=False, repr=False, compare=False)
    weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", operator.index(self.n_nodes))
        if self.n_nodes < 4:
            raise ValueError("quadrature needs at least 4 nodes")
        object.__setattr__(self, "weight", 2.0 * np.pi / self.n_nodes)
        theta = self.angles()
        for name, column in (("cos", np.cos(theta)), ("sin", np.sin(theta))):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def angles(self):
        return np.arange(self.n_nodes) * self.weight


def circle_points(rows, q: QuadratureSpec):
    """Quadrature points u cos(theta_j) + v sin(theta_j).

    `rows` is a (..., 2, 4) stack of frame rows (u, v), such as a Frame's
    `rows`; the points have shape (..., n_nodes, 4).  They are built
    coordinate-major, as rows u_i cos + v_i sin of shape (..., 4, n_nodes)
    whose inner loops run over the nodes, and returned as a C-contiguous
    copy that owns its data, so that a memo may key on it once it is
    read-only (see poly.frozen).  They equal np.outer(cos, u) +
    np.outer(sin, v) bit for bit: the same elementwise products and sum.
    """
    points = rows[..., 0, :, None] * q.cos
    points += rows[..., 1, :, None] * q.sin
    return points.swapaxes(-1, -2).copy()


def circle_integral(values, q: QuadratureSpec):
    """Periodic trapezoid sum of values sampled at the nodes along the last
    axis, times the spec's weight 2pi/n; shared by all transforms."""
    values = np.asarray(values)
    if values.shape[-1:] != (q.n_nodes,):
        raise ValueError("value count does not match the quadrature spec")
    return np.add.reduce(values, -1) * q.weight


def require_degree(f, n=0):
    """Raise unless f has degree -n-2, as every transform (n = 0) and the
    helicity-n moments need; for a HomogeneousFunction that is parity (-1)^n
    under x -> -x as well, since f(-x) = (-1)^degree f(x) by construction."""
    if n < 0:
        raise ValueError("helicity index must be nonnegative")
    if f.degree != -n - 2:
        raise ValueError(f"degree {-n - 2} needed, got {f.degree}")


# (rows, spec, points) of the last frozen frame that xray_transform integrated
_circle = (None, None, None)


def _frame_circle(frame: Frame, q: QuadratureSpec):
    """circle_points(frame.rows, q), read-only, reused from the last call
    while the frame's rows are the same frozen array and q the same spec."""
    global _circle
    rows = frame.rows
    last_rows, last_q, points = _circle
    if last_rows is rows and last_q is q and frozen(rows):
        return points
    points = circle_points(rows, q)
    points.setflags(write=False)
    if frozen(rows):
        _circle = (rows, q, points)
    return points


def xray_transform(f: HomogeneousFunction, frame: Frame,
                   q: QuadratureSpec = QuadratureSpec()):
    """Integral of f over the circle of the frame; requires degree -2."""
    require_degree(f)
    return circle_integral(f(_frame_circle(frame, q)), q)


def xray_chart_field(f: HomogeneousFunction,
                     q: QuadratureSpec = QuadratureSpec()):
    """The transform restricted to the affine chart, as a chart field (see
    operators): chart points of shape (..., 2, 2) give values of shape
    (...), from one evaluation of f on all their circles.

    The result solves the John equation; see operators.john_operator.
    """
    require_degree(f)

    def phi(X):
        return circle_integral(f(circle_points(chart_frame_rows(X), q)), q)

    return phi


def _moments(f: HomogeneousFunction, rows, n, q: QuadratureSpec):
    """The moment vector of an input already checked by require_degree,
    shape (..., n + 1) for a (..., 2, 4) stack of frame rows."""
    c, s = q.cos, q.sin
    vals = f(circle_points(rows, q))
    return np.stack([circle_integral(vals * c ** (n - k) * s ** k, q)
                     for k in range(n + 1)], axis=-1)


def xray_moments(f: HomogeneousFunction, frame: Frame, n,
                 q: QuadratureSpec = QuadratureSpec()):
    """Helicity moment vector (phi_0, ..., phi_n) of a degree -n-2 input.

    phi_k = integral over the circle of f * cos^(n-k) * sin^k.  The input
    must have degree -n-2, which gives it parity (-1)^n under x -> -x;
    n = 0 reduces to the plain transform.
    """
    n = int(n)
    require_degree(f, n)
    return _moments(f, frame.rows, n, q)


def moment_chart_field(f: HomogeneousFunction, n,
                       q: QuadratureSpec = QuadratureSpec()):
    """Moments composed with plane_from_chart, as a chart field (see
    operators): chart points of shape (..., 2, 2) give moment vectors of
    shape (..., n + 1), all n+1 of them from one evaluation of f per circle.

    The input is checked once, here, not at every chart point.
    """
    n = int(n)
    require_degree(f, n)

    def phi(X):
        return _moments(f, chart_frame_rows(X), n, q)

    return phi


def equivariance_residual(f: HomogeneousFunction, g, frames,
                          q: QuadratureSpec = QuadratureSpec()):
    """Max over frames of |R(f o g)(u, v) - (Rf)(g u, g v)|.

    Each side integrates all frames in one evaluation of its integrand.
    Both sides integrate the same nodes, f o g at u cos + v sin and f at
    g u cos + g v sin, so the identity holds node by node: the residual is
    rounding and sees no quadrature error (32 and 64 nodes give equal
    values).
    """
    require_degree(f)
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4) or np.linalg.det(g) == 0.0:
        raise ValueError("g must be an invertible 4x4 matrix")
    rows = np.array([frame.rows for frame in frames]).reshape(-1, 2, 4)
    # one matrix-vector product per vector, as in Frame.ambient_transform, so
    # the moved frames equal its frames bit for bit
    moved = np.array([[g @ u, g @ v] for u, v in rows]).reshape(-1, 2, 4)
    check_frames(moved)
    fg = f(circle_points(rows, q) @ g.T)
    return worst_residual(np.abs(circle_integral(fg, q)
                                 - circle_integral(f(circle_points(moved, q)), q)))


def random_gl2(rng, smin=0.5, smax=2.0):
    """A seeded random invertible 2x2 matrix with singular values in
    [smin, smax] and random determinant sign.

    Conditioning is bounded so that transformed frames stay within the
    spectrally-converged regime of the quadrature.
    """
    q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    s = np.exp(rng.uniform(np.log(smin), np.log(smax), size=2))
    g = q1 @ np.diag(s) @ q2
    if rng.random() < 0.5:
        g = g[:, ::-1]
    return g


def random_sl4(rng, scale=0.35):
    """A seeded random element of SL(4, R).

    Gram-Schmidt a perturbed identity, perturb again, then normalize the
    determinant to +1.
    """
    a = np.eye(4) + scale * rng.normal(size=(4, 4))
    qmat, r = np.linalg.qr(a)
    qmat = qmat * np.sign(np.diag(r))
    m = qmat + 0.5 * scale * rng.normal(size=(4, 4))
    det = np.linalg.det(m)
    if abs(det) < 1e-3:
        return random_sl4(rng, scale)
    if det < 0:
        m = m[:, [1, 0, 2, 3]]
        det = -det
    return m / det ** 0.25
