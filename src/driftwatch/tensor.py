"""Dense 3-way tensor storage and the multilinear primitives built on it.

No fit step calls ``khatri_rao``: it stays because the benchmark tracer
counts calls to it and the tests build explicit designs from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError


def _as_finite_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DenseTensor3:
    """Dense real-valued 3-way tensor with mode sizes (I, J, K)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_finite_array(self.data, "tensor")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError("tensor must be 3-way with positive dims")
        object.__setattr__(self, "data", arr)
        self.data.setflags(write=False)

    @property
    def dims(self):
        return self.data.shape

    def slice_at(self, k):
        """Frontal slice at time index k, shape (I, J)."""
        return np.array(self.data[:, :, k])


@dataclass(frozen=True)
class KruskalFactors:
    """Factor matrices A (I x R), B (J x R), C (K x R) of a rank-R CP model."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        mats = []
        for name in ("a", "b", "c"):
            m = _as_finite_array(getattr(self, name), name)
            if m.ndim != 2:
                raise ValidationError(f"factor {name} must be a matrix")
            mats.append(m)
        a, b, c = mats
        if not (a.shape[1] == b.shape[1] == c.shape[1]) or a.shape[1] < 1:
            raise ValidationError("factors must share a positive column count")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        for m in mats:
            m.setflags(write=False)

    @classmethod
    def from_checked(cls, a, b, c):
        """Factors from float64 matrices already known to be finite and of
        one column count: the arrays are frozen as they are, not re-scanned."""
        f = object.__new__(cls)
        for name, m in (("a", a), ("b", b), ("c", c)):
            m.setflags(write=False)
            object.__setattr__(f, name, m)
        return f

    @property
    def rank(self):
        return self.a.shape[1]

    @property
    def dims(self):
        return (self.a.shape[0], self.b.shape[0], self.c.shape[0])


def khatri_rao(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; column r is kron(p[:, r], q[:, r])."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ShapeMismatchError(
            f"khatri_rao needs equal column counts, got {p.shape} and {q.shape}"
        )
    return (p[:, None, :] * q[None, :, :]).reshape(-1, p.shape[1])


def kruskal_reconstruct(f: KruskalFactors) -> DenseTensor3:
    """Assemble the dense tensor t[i,j,k] = sum_r A[i,r] B[j,r] C[k,r]."""
    return DenseTensor3(np.einsum("ir,jr,kr->ijk", f.a, f.b, f.c))
