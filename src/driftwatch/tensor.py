"""Dense 3-way tensor storage and the multilinear primitives built on it.

Unfoldings use the Kolda-Bader column ordering so that the mode-1 unfolding
of a rank-R model equals ``A @ khatri_rao(C, B).T`` exactly (and the
symmetric identities for modes 2 and 3).
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadModeError, IoError, ShapeMismatchError, ValidationError


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


def unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-m matricization of ``t``.

    mode 1 -> I x (J*K) with column index j + J*k;
    mode 2 -> J x (I*K) with column index i + I*k;
    mode 3 -> K x (I*J) with column index i + I*j.
    """
    arr = t.data
    if mode == 1:
        return arr.reshape(arr.shape[0], -1, order="F")
    if mode == 2:
        return np.moveaxis(arr, 1, 0).reshape(arr.shape[1], -1, order="F")
    if mode == 3:
        return np.moveaxis(arr, 2, 0).reshape(arr.shape[2], -1, order="F")
    raise BadModeError(f"mode must be 1, 2 or 3, got {mode!r}")


def khatri_rao(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; column r is kron(p[:, r], q[:, r])."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ShapeMismatchError(
            f"khatri_rao needs equal column counts, got {p.shape} and {q.shape}"
        )
    return (p[:, None, :] * q[None, :, :]).reshape(-1, p.shape[1])


def mode_design(f: KruskalFactors, mode: int) -> np.ndarray:
    """Khatri-Rao design matrix paired with ``mode`` (C(*)B, C(*)A, B(*)A)."""
    if mode == 1:
        return khatri_rao(f.c, f.b)
    if mode == 2:
        return khatri_rao(f.c, f.a)
    if mode == 3:
        return khatri_rao(f.b, f.a)
    raise BadModeError(f"mode must be 1, 2 or 3, got {mode!r}")


def kruskal_reconstruct(f: KruskalFactors) -> DenseTensor3:
    """Assemble the dense tensor t[i,j,k] = sum_r A[i,r] B[j,r] C[k,r]."""
    return DenseTensor3(np.einsum("ir,jr,kr->ijk", f.a, f.b, f.c))


def rmse(t: DenseTensor3, f: KruskalFactors) -> float:
    """Root mean square reconstruction error over all I*J*K cells."""
    if t.dims != f.dims:
        raise ShapeMismatchError(f"tensor dims {t.dims} != factor dims {f.dims}")
    resid = t.data - np.einsum("ir,jr,kr->ijk", f.a, f.b, f.c)
    return float(np.sqrt(np.mean(resid**2)))


def save_tensor_csv(t: DenseTensor3, path: str) -> None:
    """Write ``path`` as i,j,k,value rows plus a JSON dims sidecar."""
    i_n, j_n, k_n = t.dims
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "k", "value"])
            for k in range(k_n):
                for j in range(j_n):
                    for i in range(i_n):
                        w.writerow([i, j, k, repr(float(t.data[i, j, k]))])
        with open(_sidecar_path(path), "w") as fh:
            json.dump({"I": i_n, "J": j_n, "K": k_n}, fh)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write tensor to {path}: {exc}") from exc


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".dims.json"


def load_tensor_csv(path: str) -> DenseTensor3:
    """Load a tensor written by :func:`save_tensor_csv`.

    Rejects duplicate and missing cells.
    """
    try:
        with open(_sidecar_path(path)) as fh:
            dims = json.load(fh)
        i_n, j_n, k_n = int(dims["I"]), int(dims["J"]), int(dims["K"])
        arr = np.full((i_n, j_n, k_n), np.nan)
        seen = np.zeros((i_n, j_n, k_n), dtype=bool)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                i, j, k = int(row["i"]), int(row["j"]), int(row["k"])
                if not (0 <= i < i_n and 0 <= j < j_n and 0 <= k < k_n):
                    raise ValidationError(f"cell ({i},{j},{k}) out of bounds")
                if seen[i, j, k]:
                    raise ValidationError(f"duplicate cell ({i},{j},{k})")
                seen[i, j, k] = True
                arr[i, j, k] = float(row["value"])
    except OSError as exc:
        raise IoError(f"cannot read tensor from {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise ValidationError(f"malformed tensor file {path}: {exc}") from exc
    if not seen.all():
        raise ValidationError("tensor file is missing cells")
    return DenseTensor3(arr)


_HEX = np.frompyfunc(float.hex, 1, 1)
_UNHEX = np.frompyfunc(float.fromhex, 1, 1)


def to_hex(values):
    """Exact hex strings of a float, or nested lists of them for an array."""
    out = _HEX(np.asarray(values, dtype=np.float64))
    return out.tolist() if isinstance(out, np.ndarray) else out


def from_hex(values):
    """Inverse of :func:`to_hex`: a float, or a float64 array."""
    if isinstance(values, str):
        return float.fromhex(values)
    return _UNHEX(np.array(values, dtype=object)).astype(np.float64)


def save_factor_csv(matrix: np.ndarray, path: str) -> None:
    """Export one factor matrix as a plain CSV of row values."""
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in np.asarray(matrix, dtype=np.float64):
                w.writerow([repr(float(v)) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write factor to {path}: {exc}") from exc
