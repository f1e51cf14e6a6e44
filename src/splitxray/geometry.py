"""Incidence geometry of lines and 2-planes in R^4.

Concrete coordinate models for the correspondence behind the transforms:
frames (ordered bases) of real 2-planes, their Pluecker coordinates and
chart, and the map pi sending a non-real complex line [z] in CP^3 to the
real plane span(Re z, Im z).  Complex lines are plain complex 4-vectors.
Orientation is carried purely by frame order; unordered-plane comparisons
go through Pluecker coordinates up to scale.

A Frame is one read-only (2, 4) array of rows (u, v), the form in which
every transform takes frames; all operations are pure functions.
"""

from __future__ import annotations

import numpy as np

# Default tolerance of is_real, relative to the vector's norm.
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


class Frame:
    """An ordered basis (u, v) of a real 2-plane in R^4.

    The order of the two vectors carries the plane orientation; right
    multiplication by an invertible 2x2 matrix moves within the plane.
    `rows` is (u, v) as one read-only (2, 4) array; `u`, `v` are its views.
    """

    __slots__ = ("rows",)

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (4,) or v.shape != (4,):
            raise ValueError("frame vectors must be real 4-vectors")
        self.rows = check_frames(np.stack([u, v]))
        self.rows.setflags(write=False)

    @property
    def u(self):
        return self.rows[0]

    @property
    def v(self):
        return self.rows[1]

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

    def orientation_sign(self, other):
        """+1 / -1 depending on whether `other` spans the same plane with the
        same / opposite orientation; raises if the planes differ."""
        if plane_distance(self, other) > 1e-8:
            raise ValueError("frames span different planes")
        # solve [other.u other.v] = [u v] g in the least-squares sense
        g, *_ = np.linalg.lstsq(self.rows.T, other.rows.T, rcond=None)
        return 1.0 if np.linalg.det(g) > 0 else -1.0

    def __repr__(self):
        return (f"Frame(u={np.array2string(self.u, precision=6)}, "
                f"v={np.array2string(self.v, precision=6)})")


def plucker_embed(f: Frame):
    """The six 2x2 minors p_ij = u_i v_j - u_j v_i of the frame, as the
    array (p12, p13, p14, p23, p24, p34); they satisfy the quadric
    relation."""
    u, v = f.rows
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
    lead = f.rows[:, :2]
    if abs(np.linalg.det(lead)) <= DEGENERACY_RTOL:
        raise ValueError("plane lies outside the p12 != 0 chart")
    return np.linalg.solve(lead, f.rows[:, 2:])


def is_real(z, tol=PROJECTIVE_TOL):
    """True iff some scalar multiple of the complex 4-vector z is real.

    Equivalent to real-linear dependence of the real and imaginary parts:
    the second singular value of the 2x4 matrix (Re z, Im z) is at most
    tol times the norm of z.  The zero vector counts as real.
    """
    z = np.asarray(z, dtype=complex)
    s = np.linalg.svd(np.vstack([z.real, z.imag]), compute_uv=False)
    return bool(s[1] <= tol * np.linalg.norm(z))


def pi_project(z) -> Frame:
    """The frame (Re z, Im z) of the real 2-plane pi([z]) for a complex
    4-vector z.

    Defined only off the real locus; the orientation of the resulting frame
    is independent of the chosen representative (rescaling z by any nonzero
    complex number changes the frame by a positive-determinant 2x2 matrix).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (4,):
        raise ValueError("z must be a complex 4-vector")
    if is_real(z):
        raise ValueError("pi_project undefined for zero and real vectors "
                         "(a real line lies in RP^3)")
    return Frame(z.real, z.imag)


def incidence_residual(z, plane: Frame):
    """Distance from the 4-vector z, real or complex, to the complexified
    span of the frame: zero iff the line [z] lies in the plane."""
    q, _ = np.linalg.qr(plane.rows.T.astype(complex))
    w = np.asarray(z, dtype=complex)
    return float(np.linalg.norm(w - q @ (np.conj(q.T) @ w)))


def plane_distance(f: Frame, g: Frame):
    """min(|p - q|, |p + q|) of the unit Pluecker vectors p, q of the two
    frames: zero iff they span the same unordered plane."""
    p = plucker_embed(f)
    q = plucker_embed(g)
    p = p / np.linalg.norm(p)
    q = q / np.linalg.norm(q)
    return float(min(np.linalg.norm(p - q), np.linalg.norm(p + q)))
