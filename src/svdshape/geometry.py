"""Landmark preprocessing, the SVD shape coordinate map, and the spherical
chart.

Pipeline: raw landmarks X (N x K) -> centered Y = L X Theta^{-1/2}
((N-1) x K) -> thin SVD shape decomposition (V, D, H) -> size r, shape
matrix W and generalized polar angles u; a sample is a group of them.

This module is the only place that knows the chart: how m angles map to a
unit vector of length m + 1 and back, how that vector is the column-major
vec of an (N-1) x K frame, and the chart Jacobian J(u). Every chart function
works on one point or on a batch: angles are (..., m), unit vectors
(..., m + 1), frames (..., N-1, K). J is kept as log J, which stays finite
where J itself underflows (large N, near-degenerate configurations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateConfigurationError, DomainError


class Mode(Enum):
    REFLECTION = "reflection"
    NO_REFLECTION = "no-reflection"


@dataclass(frozen=True)
class LandmarkSet:
    """One specimen: N landmarks in K dimensions."""

    id: str
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 2:
            raise DomainError(f"landmark matrix must be 2-D, got shape {coords.shape}")
        N, K = coords.shape
        if N < 3 or K < 2 or N <= K:
            raise DomainError(f"need N >= 3, K >= 2 and N > K; got N={N}, K={K}")
        if not np.all(np.isfinite(coords)):
            raise DomainError(f"specimen {self.id!r} has non-finite coordinates")

    @property
    def N(self) -> int:
        return self.coords.shape[0]

    @property
    def K(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class ShapeCoords:
    """Full SVD shape decomposition of a centered configuration Y.

    V' D H reconstructs Y; W = V'D / r has unit Frobenius norm; u holds the
    m = (N-1)n - 1 generalized polar angles of vec W (column-major), with the
    first m-1 angles in [0, pi] and the last in [0, 2 pi).
    """

    mode: Mode
    V: np.ndarray        # n x (N-1), orthonormal rows
    D: np.ndarray        # n singular values, |D| non-increasing
    H: np.ndarray        # n x K, orthonormal rows
    r: float
    W: np.ndarray        # (N-1) x n
    u: np.ndarray        # m angles
    log_jacobian: float  # log J(u); -inf at a chart pole

    @property
    def jacobian(self) -> float:
        return math.exp(self.log_jacobian)

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[0]


def helmert_submatrix(N: int) -> np.ndarray:
    """The (N-1) x N sub-Helmert matrix: orthonormal rows annihilating 1_N."""
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    L = np.zeros((N - 1, N))
    for j in range(1, N):
        c = 1.0 / math.sqrt(j * (j + 1))
        L[j - 1, :j] = -c
        L[j - 1, j] = j * c
    return L


def theta_inv_sqrt(Theta: np.ndarray) -> np.ndarray:
    """Symmetric positive definite inverse square root of Theta."""
    Theta = np.asarray(Theta, dtype=float)
    if Theta.ndim != 2 or Theta.shape[0] != Theta.shape[1]:
        raise DomainError(f"Theta must be square, got shape {Theta.shape}")
    if not np.allclose(Theta, Theta.T, atol=1e-12 * max(1.0, float(np.abs(Theta).max()))):
        raise DomainError("Theta must be symmetric")
    evals, evecs = np.linalg.eigh(Theta)
    tol = 1e-12 * float(np.abs(evals).max())
    if evals.min() <= tol:
        raise DomainError(f"Theta is not positive definite (min eigenvalue {evals.min():.3g})")
    M = (evecs / np.sqrt(evals)) @ evecs.T
    return 0.5 * (M + M.T)


def preprocess(X: LandmarkSet | np.ndarray,
               Theta: np.ndarray | None = None) -> np.ndarray:
    """Centered, whitened configuration Y = L X Theta^{-1/2}.

    X is one specimen or an (..., N, K) array of landmark matrices; Y is
    (..., N-1, K). Theta must be K x K.
    """
    coords = X.coords if isinstance(X, LandmarkSet) else np.asarray(X, dtype=float)
    Y = helmert_submatrix(coords.shape[-2]) @ coords
    if Theta is not None:
        Theta = np.asarray(Theta, dtype=float)
        K = coords.shape[-1]
        if Theta.shape != (K, K):
            raise DomainError(f"Theta is {'x'.join(map(str, Theta.shape))} but the "
                              f"landmarks have K={K} coordinates; it must be {K}x{K}")
        Y = Y @ theta_inv_sqrt(Theta)
    return Y


def svd_shape(Y: np.ndarray, mode: Mode = Mode.REFLECTION) -> ShapeCoords:
    """SVD shape coordinates of a centered configuration Y ((N-1) x K).

    Reflection mode keeps all singular values non-negative; no-reflection
    mode flips the last singular pair so the rotation factor H has
    determinant +1 (requires N-1 >= K). Signs of the V columns are fixed
    deterministically (largest-magnitude entry positive, first index wins
    ties) so repeated singular values still give reproducible output.
    """
    Y = np.asarray(Y, dtype=float)
    Nm1, K = Y.shape
    n = min(Nm1, K)
    r = float(np.linalg.norm(Y))
    if r == 0.0:
        raise DegenerateConfigurationError("all landmarks coincide; shape is undefined")
    U, S, Vt = np.linalg.svd(Y, full_matrices=False)  # Y = U diag(S) Vt
    # deterministic sign convention per singular pair
    for j in range(n):
        col = U[:, j]
        lead = col[np.argmax(np.abs(col))]
        if lead < 0:
            U[:, j] = -col
            Vt[j, :] = -Vt[j, :]
    D = S.copy()
    H = Vt
    if mode is Mode.NO_REFLECTION:
        if Nm1 < K:
            raise DomainError("no-reflection mode needs N-1 >= K")
        if n == K and np.linalg.det(H) < 0:
            H = H.copy()
            H[-1, :] = -H[-1, :]
            D = D.copy()
            D[-1] = -D[-1]
    V = U.T  # n x (N-1)
    W = (U * D) / r
    u = frame_to_angles(W)
    return ShapeCoords(mode=mode, V=V, D=D, H=H, r=r, W=W, u=u,
                       log_jacobian=float(log_polar_jacobian(u)))


def angles_to_unitvec(u: np.ndarray) -> np.ndarray:
    """Standard spherical chart: (..., m) angles -> (..., m + 1) unit vectors.

    v_i = cos(u_i) prod_{j<i} sin(u_j) for i < m, and v_m = prod_j sin(u_j).
    """
    u = np.asarray(u, dtype=float)
    ones = np.ones(u.shape[:-1] + (1,))
    sines = np.concatenate([ones, np.cumprod(np.sin(u), axis=-1)], axis=-1)
    return np.concatenate([np.cos(u), ones], axis=-1) * sines


def unitvec_to_angles(v: np.ndarray) -> np.ndarray:
    """Inverse spherical chart: (..., m + 1) vectors -> (..., m) angles; each
    vector is renormalized internally.

    The first m-1 angles lie in [0, pi], the last in [0, 2 pi). At chart
    poles (an all-zero tail) the canonical representative with the remaining
    angles equal to 0 is returned; a zero vector raises DomainError.
    """
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    if np.any(norm == 0.0):
        raise DomainError("zero vector has no angle coordinates")
    v = v / norm
    m = v.shape[-1] - 1
    u = np.zeros(v.shape[:-1] + (m,))
    if m >= 1:
        tail = np.sqrt(np.cumsum(v[..., ::-1] ** 2, axis=-1))[..., ::-1]
        head, rest = v[..., :m - 1], tail[..., 1:m]
        u[..., :m - 1] = np.where(rest == 0.0, np.where(head >= 0, 0.0, math.pi),
                                  np.arctan2(rest, head))
        u[..., m - 1] = np.arctan2(v[..., m], v[..., m - 1]) % (2 * math.pi)
    return u


def angles_to_frame(u: np.ndarray, Nm1: int, K: int) -> np.ndarray:
    """(..., m) angles -> (..., N-1, K) frames whose column-major vec is the
    chart's unit vector; m + 1 must equal (N-1) K."""
    v = angles_to_unitvec(u)
    if v.shape[-1] != Nm1 * K:
        raise DomainError(f"{v.shape[-1] - 1} angles do not chart an "
                          f"({Nm1}, {K}) frame")
    return np.swapaxes(v.reshape(v.shape[:-1] + (K, Nm1)), -1, -2)


def frame_to_angles(W: np.ndarray) -> np.ndarray:
    """(..., N-1, K) frames -> (..., m) angles of their normalized
    column-major vec; the inverse of :func:`angles_to_frame`."""
    W = np.asarray(W, dtype=float)
    return unitvec_to_angles(np.swapaxes(W, -1, -2).reshape(W.shape[:-2] + (-1,)))


def log_polar_jacobian(u: np.ndarray) -> np.ndarray | float:
    """log J(u) = sum_{i=1}^{m-1} (m - i) log sin(theta_i) over the last
    axis of (..., m) angles; -inf at chart poles."""
    u = np.asarray(u, dtype=float)
    m = u.shape[-1]
    s = np.sin(u[..., :m - 1])
    with np.errstate(divide="ignore"):
        logs = np.log(np.where(s > 0, s, 0.0))
    return logs @ np.arange(m - 1, 0, -1, dtype=float)


def polar_jacobian(u: np.ndarray) -> np.ndarray | float:
    """J(u) = prod_{i=1}^{m} sin^{m-i}(theta_i) (the i = m factor is 1);
    underflows to 0 where :func:`log_polar_jacobian` stays finite."""
    return np.exp(log_polar_jacobian(u))


def preshape_angles(Y: np.ndarray) -> np.ndarray:
    """Generalized polar angles of the raw pre-shape vec(Y)/||Y|| (column-major).

    Unlike the SVD chart, this chart covers the whole sphere; the shape
    densities are constant on right-rotation orbits, so they take the same
    value on either chart. Simulation-based checks use this chart because the
    analytic angle density is exactly the law of these angles for a
    rotation-uniformized configuration.
    """
    Y = np.asarray(Y, dtype=float)
    r = float(np.linalg.norm(Y))
    if r == 0.0:
        raise DegenerateConfigurationError("all landmarks coincide; shape is undefined")
    return frame_to_angles(Y / r)


@dataclass(frozen=True)
class SampleOfShapes:
    """A homogeneous group of shape coordinates."""

    group_id: str
    items: tuple[tuple[str, ShapeCoords], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise DomainError(f"sample {self.group_id!r} is empty")
        shapes = [sc for _, sc in self.items]
        first = shapes[0]
        for _, sc in self.items:
            if sc.W.shape != first.W.shape or sc.mode is not first.mode:
                raise DomainError(
                    f"sample {self.group_id!r} mixes dimensions or modes")

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def Nm1(self) -> int:
        return self.items[0][1].W.shape[0]

    @property
    def K(self) -> int:
        return self.items[0][1].W.shape[1]

    @property
    def mode(self) -> Mode:
        return self.items[0][1].mode

    def merged(self, other: "SampleOfShapes", group_id: str) -> "SampleOfShapes":
        if (self.Nm1, self.K, self.mode) != (other.Nm1, other.K, other.mode):
            raise DomainError("cannot pool samples with different dimensions or modes")
        return SampleOfShapes(group_id, self.items + other.items)
