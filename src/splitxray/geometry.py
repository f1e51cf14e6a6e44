"""Incidence geometry of lines and 2-planes in R^4.

Concrete coordinate models for the four correspondence spaces used by the
transforms: real and complex projective lines, frames (ordered bases) of
real 2-planes, flag pairs, and pairs of a complex line inside a
complexified real plane.  Orientation is carried purely by frame order;
unordered-plane comparisons go through Pluecker coordinates up to scale.

All objects are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default tolerance for projective equality / incidence residuals.
PROJECTIVE_TOL = 1e-10
# A frame is rejected as degenerate when the smaller singular value of its
# 2x4 matrix falls below this multiple of the larger one, or when the
# product of the two, the norm of its Pluecker vector, is below the smallest
# normal float: its 2x2 minors would underflow.
DEGENERACY_RTOL = 1e-8
_TINY = float(np.finfo(float).tiny)


def check_frames(rows):
    """Raise on the first degenerate frame of a (..., 2, 4) stack of rows
    (u, v); return the stack.

    One stacked SVD gives every frame's singular values; the rule is
    DEGENERACY_RTOL's, and Frame applies it through this function.
    """
    s = np.linalg.svd(rows, compute_uv=False)
    # one frame gives Python floats and a bool, which skip the array overhead
    s0, s1 = s.tolist() if s.ndim == 1 else s.T
    bad = (s1 <= DEGENERACY_RTOL * s0) | (s0 * s1 < _TINY)
    if bad is not False and np.any(bad):
        s0, s1 = s.reshape(-1, 2)[np.flatnonzero(np.transpose(bad))[0]]
        raise ValueError(f"degenerate frame: singular values {s0:.3e}, {s1:.3e}")
    return rows


def _readonly(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


class RealProjectivePoint:
    """A real line through the origin in R^4, stored as a unit representative."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        v = np.asarray(rep, dtype=float)
        if v.shape != (4,):
            raise ValueError("representative must be a real 4-vector")
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("zero vector does not represent a projective point")
        self.rep = _readonly(v / n)

    def proj_eq(self, other, tol=PROJECTIVE_TOL):
        """Projective equality: representatives agree up to sign."""
        return 1.0 - abs(float(self.rep @ other.rep)) <= tol

    def __repr__(self):
        return f"RealProjectivePoint({np.array2string(self.rep, precision=6)})"


class ComplexProjectivePoint:
    """A complex line through the origin in C^4, stored as a unit representative."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        v = np.asarray(rep, dtype=complex)
        if v.shape != (4,):
            raise ValueError("representative must be a complex 4-vector")
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("zero vector does not represent a projective point")
        self.rep = _readonly(v / n)

    def proj_eq(self, other, tol=PROJECTIVE_TOL):
        """Equality up to a complex scalar: |<a,b>| = 1 for unit representatives."""
        return 1.0 - abs(complex(np.conj(self.rep) @ other.rep)) <= tol

    def is_real(self, tol=PROJECTIVE_TOL):
        """True iff some scalar multiple of the representative is real.

        Equivalent to real-linear dependence of the real and imaginary
        parts, tested through the second singular value of the 2x4 matrix
        (Re, Im).
        """
        m = np.vstack([self.rep.real, self.rep.imag])
        s = np.linalg.svd(m, compute_uv=False)
        return s[1] <= tol * max(s[0], 1.0)

    def conj(self):
        return ComplexProjectivePoint(np.conj(self.rep))

    def __repr__(self):
        return f"ComplexProjectivePoint({np.array2string(self.rep, precision=6)})"


class Frame:
    """An ordered basis (u, v) of a real 2-plane in R^4.

    The order of the two vectors carries the plane orientation; right
    multiplication by an invertible 2x2 matrix moves within the plane.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (4,) or v.shape != (4,):
            raise ValueError("frame vectors must be real 4-vectors")
        check_frames(np.vstack([u, v]))
        self.u = _readonly(u)
        self.v = _readonly(v)

    def matrix(self):
        """Rows u, v as a 2x4 array."""
        return np.vstack([self.u, self.v])

    def transform(self, g):
        """Right action: columns of [u v] are recombined by the 2x2 matrix g."""
        g = np.asarray(g, dtype=float)
        if g.shape != (2, 2):
            raise ValueError("g must be a 2x2 matrix")
        if np.linalg.det(g) == 0.0:
            raise ValueError("g must be invertible")
        return Frame(g[0, 0] * self.u + g[1, 0] * self.v,
                     g[0, 1] * self.u + g[1, 1] * self.v)

    def ambient_transform(self, g):
        """Left action of an invertible 4x4 matrix on both frame vectors."""
        g = np.asarray(g, dtype=float)
        return Frame(g @ self.u, g @ self.v)

    def spans_same_plane(self, other, tol=PROJECTIVE_TOL):
        """Unordered-plane equality through unit Pluecker vectors up to sign."""
        p = plucker_embed(self)
        q = plucker_embed(other)
        p = p / np.linalg.norm(p)
        q = q / np.linalg.norm(q)
        return min(np.linalg.norm(p - q), np.linalg.norm(p + q)) <= tol

    def orientation_sign(self, other):
        """+1 / -1 depending on whether `other` spans the same plane with the
        same / opposite orientation; raises if the planes differ."""
        if not self.spans_same_plane(other, tol=1e-8):
            raise ValueError("frames span different planes")
        # solve [other.u other.v] = [u v] g in the least-squares sense
        basis = self.matrix().T
        g, *_ = np.linalg.lstsq(basis, other.matrix().T, rcond=None)
        return 1.0 if np.linalg.det(g) > 0 else -1.0

    def __repr__(self):
        return (f"Frame(u={np.array2string(self.u, precision=6)}, "
                f"v={np.array2string(self.v, precision=6)})")


def plucker_embed(f: Frame):
    """The six 2x2 minors p_ij = u_i v_j - u_j v_i of the frame, as the
    array (p12, p13, p14, p23, p24, p34); they satisfy the quadric
    relation."""
    u, v = f.u, f.v
    return np.array([u[0] * v[1] - u[1] * v[0],
                     u[0] * v[2] - u[2] * v[0],
                     u[0] * v[3] - u[3] * v[0],
                     u[1] * v[2] - u[2] * v[1],
                     u[1] * v[3] - u[3] * v[1],
                     u[2] * v[3] - u[3] * v[2]])


def quadric_residual(p):
    """p12*p34 - p13*p24 + p14*p23 of Pluecker coordinates p, relative to
    the coordinate scale.

    The coordinates are scaled to a largest magnitude of 1 before the
    products, so tiny coordinates do not underflow to a 0 / 0.
    """
    scale = float(np.max(np.abs(p)))
    if scale == 0.0:
        raise ValueError("all Pluecker coordinates vanish")
    p12, p13, p14, p23, p24, p34 = p / scale
    return abs(p12 * p34 - p13 * p24 + p14 * p23)


def _chart_rows(X):
    """Rows (1, 0, X11, X12) and (0, 1, X21, X22) for chart points of shape
    (..., 2, 2), as an array of shape (..., 2, 4)."""
    rows = np.zeros(X.shape[:-2] + (2, 4))
    rows[..., 0, 0] = 1.0
    rows[..., 1, 1] = 1.0
    rows[..., 2:] = X
    return rows


def plane_from_chart(X) -> Frame:
    """Frame ((1,0,X11,X12), (0,1,X21,X22)) of the affine chart p12 != 0."""
    X = np.asarray(X, dtype=float)
    if X.shape != (2, 2):
        raise ValueError("chart coordinate must be a 2x2 matrix")
    return Frame(*_chart_rows(X))


def chart_frame_rows(X):
    """The rows of plane_from_chart for a (..., 2, 2) stack of chart points,
    shape (..., 2, 4), checked by check_frames."""
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (2, 2):
        raise ValueError("chart coordinates must have trailing shape (2, 2)")
    return check_frames(_chart_rows(X))


def chart_from_plane(f: Frame):
    """Inverse of plane_from_chart on its image: row-reduce so the first two
    columns become the identity and return the remaining 2x2 block."""
    m = f.matrix()
    lead = m[:, :2]
    if abs(np.linalg.det(lead)) <= DEGENERACY_RTOL:
        raise ValueError("plane lies outside the p12 != 0 chart")
    return np.linalg.solve(lead, m[:, 2:])


def pi_project(z: ComplexProjectivePoint) -> Frame:
    """The real 2-plane spanned by the real and imaginary parts of z.

    Defined only off the real locus; the orientation of the resulting frame
    is independent of the chosen representative (rescaling z by any nonzero
    complex number changes the frame by a positive-determinant 2x2 matrix).
    """
    if z.is_real():
        raise ValueError("pi_project undefined for real points (line lies in RP^3)")
    return Frame(z.rep.real, z.rep.imag)


@dataclass(frozen=True)
class GPoint:
    """A complex line lying inside the complexification of a real 2-plane."""

    line: ComplexProjectivePoint
    plane: Frame

    def __post_init__(self):
        r = _projection_residual_complex(self.line.rep, self.plane)
        if r > PROJECTIVE_TOL:
            raise ValueError(
                f"line is not contained in the complexified plane (residual {r:.3e})")


def _projection_residual_real(w, plane: Frame):
    q, _ = np.linalg.qr(plane.matrix().T)
    return float(np.linalg.norm(w - q @ (q.T @ w)))


def _projection_residual_complex(w, plane: Frame):
    q, _ = np.linalg.qr(plane.matrix().T.astype(complex))
    return float(np.linalg.norm(w - q @ (np.conj(q.T) @ w)))


def incidence(line, plane: Frame, tol=PROJECTIVE_TOL):
    """True iff the line lies in the (complexified) span of the frame.

    Accepts a RealProjectivePoint against the real span or a
    ComplexProjectivePoint against the complexified span.
    """
    if isinstance(line, RealProjectivePoint):
        return _projection_residual_real(line.rep, plane) <= tol
    if isinstance(line, ComplexProjectivePoint):
        return _projection_residual_complex(line.rep, plane) <= tol
    raise TypeError("line must be a real or complex projective point")


def mu_restrict(gp: GPoint) -> ComplexProjectivePoint:
    """Forget the plane of an incident pair; only defined off the real locus."""
    if gp.line.is_real():
        raise ValueError("restriction undefined on flag pairs with a real line")
    return gp.line


def mu_inverse(z: ComplexProjectivePoint) -> GPoint:
    """The unique incident pair over a non-real complex line."""
    if z.is_real():
        raise ValueError("inverse undefined for real points (line lies in RP^3)")
    return GPoint(z, pi_project(z))
