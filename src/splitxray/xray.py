"""The circle X-ray transform and its helicity moments.

A homogeneous degree -2 function is integrated over the circle of lines
inside a 2-plane: given a frame (u, v), the raw integral over theta in
[0, 2pi) of f(u cos theta + v sin theta).  Uniform periodic trapezoid
nodes make the quadrature spectrally accurate for the analytic integrands
in scope.  No 1/(2pi) normalization is applied anywhere, so the flagship
closed form is exactly 2*pi/sqrt(det Gram).

A QuadratureSpec computes the cos and sin of its nodes and the weight
2pi/n once, when it is built; a transform then costs the circle points
(per coordinate, two scaled node rows and a sum), one evaluation of the
integrand on them and one np.add.reduce times the weight.  xray_transform
keeps the read-only circle points of the last (frame, spec) it integrated,
so a design matrix, which integrates every basis function over one frame
before the next, builds each frame's circle once.  Being read-only, those
points also key poly.point_memo, so the basis functions share each
degree's monomial table and each radial factor of the frame.  A design-
matrix entry is then one xray_transform, one HomogeneousFunction call and
one Poly4 call, each passing the float64 circle points on unconverted:
a memo hit for the circle, a take and a dot for the polynomial, a memo
hit for the radial factor, a product and the sum.

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


def circle_points(frame, q: QuadratureSpec):
    """Quadrature points u cos(theta_j) + v sin(theta_j).

    `frame` is a Frame, giving shape (n_nodes, 4), or a (..., 2, 4) stack of
    frame rows (u, v), giving (..., n_nodes, 4).  The points are built
    coordinate-major, as rows u_i cos + v_i sin of shape (..., 4, n_nodes)
    whose inner loops run over the nodes, and returned as a C-contiguous
    (..., n_nodes, 4) copy that owns its data, so that a memo may key on it
    once it is read-only (see poly.frozen).  They are the same elementwise
    products and sum as np.outer(cos, u) + np.outer(sin, v), so they equal
    that formula's bit for bit.
    """
    if isinstance(frame, Frame):
        u, v = frame.u[:, None], frame.v[:, None]
    else:
        u, v = frame[..., 0, :, None], frame[..., 1, :, None]
    points = u * q.cos
    points += v * q.sin
    return points.swapaxes(-1, -2).copy()


def circle_integral(values, q: QuadratureSpec):
    """Periodic trapezoid sum of values sampled at the nodes along the last
    axis, times the spec's weight 2pi/n; shared by all transforms."""
    values = np.asarray(values)
    if values.shape[-1:] != (q.n_nodes,):
        raise ValueError("value count does not match the quadrature spec")
    return np.add.reduce(values, -1) * q.weight


# (u, v, spec, points) of the last frame xray_transform integrated, its
# vectors frozen; replaced as one tuple.
_circle = (None, None, None, None)


def _frame_circle(frame: Frame, q: QuadratureSpec):
    """circle_points(frame, q), read-only, reused from the last call while
    the frame's u and v are the same frozen arrays and q the same spec."""
    global _circle
    u, v = frame.u, frame.v
    last_u, last_v, last_q, points = _circle
    if (last_u is u and last_v is v and last_q is q
            # frozen(u) and frozen(v)
            and not (u.flags.writeable or v.flags.writeable)
            and u.base is None and v.base is None):
        return points
    points = circle_points(frame, q)
    points.setflags(write=False)
    if frozen(u) and frozen(v):
        _circle = (u, v, q, points)
    return points


def xray_transform(f: HomogeneousFunction, frame: Frame,
                   q: QuadratureSpec = QuadratureSpec()):
    """Integral of f over the circle of the frame; requires degree -2."""
    if f.degree != -2:
        raise ValueError(f"X-ray transform needs degree -2, got {f.degree}")
    return circle_integral(f(_frame_circle(frame, q)), q)


def xray_chart_field(f: HomogeneousFunction,
                     q: QuadratureSpec = QuadratureSpec()):
    """The transform restricted to the affine chart, as a chart field (see
    operators): chart points of shape (..., 2, 2) give values of shape
    (...), from one evaluation of f on all their circles.

    The result solves the John equation; see operators.john_operator.
    """
    if f.degree != -2:
        raise ValueError(f"X-ray transform needs degree -2, got {f.degree}")

    def phi(X):
        return circle_integral(f(circle_points(chart_frame_rows(X), q)), q)

    return phi


def _check_moment_input(f: HomogeneousFunction, n):
    """Degree -n-2, which for a HomogeneousFunction is parity (-1)^n under
    x -> -x as well: f(-x) = (-1)^degree f(x) holds by construction."""
    if n < 0:
        raise ValueError("helicity index must be nonnegative")
    if f.degree != -n - 2:
        raise ValueError(
            f"moments at helicity index {n} need degree {-n - 2}, got {f.degree}")


def _moments(f: HomogeneousFunction, frame, n, q: QuadratureSpec):
    """The moment vector of an input already checked by _check_moment_input,
    shape (..., n + 1) for a frame or a stack of frame rows (see
    circle_points)."""
    c, s = q.cos, q.sin
    vals = f(circle_points(frame, q))
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
    _check_moment_input(f, n)
    return _moments(f, frame, n, q)


def moment_chart_field(f: HomogeneousFunction, n,
                       q: QuadratureSpec = QuadratureSpec()):
    """Moments composed with plane_from_chart, as a chart field (see
    operators): chart points of shape (..., 2, 2) give moment vectors of
    shape (..., n + 1), all n+1 of them from one evaluation of f per circle.

    The input is checked once, here, not at every chart point.
    """
    n = int(n)
    _check_moment_input(f, n)

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
    if f.degree != -2:
        raise ValueError(f"X-ray transform needs degree -2, got {f.degree}")
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4) or np.linalg.det(g) == 0.0:
        raise ValueError("g must be an invertible 4x4 matrix")
    rows = np.array([[frame.u, frame.v] for frame in frames]).reshape(-1, 2, 4)
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
