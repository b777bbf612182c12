"""Every file driftwatch reads or writes, and the one mapping of file errors.

A file that cannot be opened, read or written is an IoError; a file that is
read but is not well formed is a ValidationError. The command line exits 2
on both. Floats that must survive a round trip bit for bit (bundles) are
stored as exact hex strings; floats in CSV files are written with ``repr``.
"""

import csv
import json
import os
from contextlib import contextmanager

import numpy as np

from .advisor import AdvisorConfig, LocationSnapshot, UpdatePolicy
from .decomp import LrSchedule, NesgdState, OptimizerKind, StreamDecomposition
from .errors import IoError, KktViolationError, ValidationError, check_int
from .ocsvm import KernelSpec, OcsvmModel, kkt_partition
from .tensor import DenseTensor3, KruskalFactors


@contextmanager
def reading(path, what):
    try:
        with open(path, newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


@contextmanager
def writing(path, what):
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


@contextmanager
def parsing(what):
    """Report a missing key or a value of the wrong type or form, met while
    decoding ``what``, as one ValidationError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def sibling(path, suffix):
    """``path`` with its extension replaced by ``suffix``."""
    return os.path.splitext(path)[0] + suffix


def labels_path(tensor_path):
    return sibling(tensor_path, ".labels.csv")


def write_json(path, what, payload):
    with writing(path, what) as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_json(path, what):
    with reading(path, what) as fh, parsing(f"{what} {path}"):
        return json.load(fh)


# ------------------------------------------------------------ hex floats

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


# ------------------------------------------------------------------- csv

def save_tensor_csv(t: DenseTensor3, path: str) -> None:
    """Write ``path`` as i,j,k,value rows plus a JSON dims sidecar."""
    i_n, j_n, k_n = t.dims
    with writing(path, "tensor") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "k", "value"])
        for k in range(k_n):
            for j in range(j_n):
                for i in range(i_n):
                    w.writerow([i, j, k, repr(float(t.data[i, j, k]))])
    write_json(sibling(path, ".dims.json"), "tensor dims",
               {"I": i_n, "J": j_n, "K": k_n})


def load_tensor_csv(path: str) -> DenseTensor3:
    """Load a tensor written by :func:`save_tensor_csv`.

    Rejects duplicate and missing cells.
    """
    dims = read_json(sibling(path, ".dims.json"), "tensor dims")
    with parsing(f"tensor file {path}"):
        i_n, j_n, k_n = int(dims["I"]), int(dims["J"]), int(dims["K"])
        arr = np.full((i_n, j_n, k_n), np.nan)
        seen = np.zeros((i_n, j_n, k_n), dtype=bool)
        with reading(path, "tensor") as fh:
            for row in csv.DictReader(fh):
                i, j, k = int(row["i"]), int(row["j"]), int(row["k"])
                if not (0 <= i < i_n and 0 <= j < j_n and 0 <= k < k_n):
                    raise ValidationError(f"cell ({i},{j},{k}) out of bounds")
                if seen[i, j, k]:
                    raise ValidationError(f"duplicate cell ({i},{j},{k})")
                seen[i, j, k] = True
                arr[i, j, k] = float(row["value"])
    if not seen.all():
        raise ValidationError("tensor file is missing cells")
    return DenseTensor3(arr)


def save_factor_csv(matrix: np.ndarray, path: str) -> None:
    """Export one factor matrix as a plain CSV of row values."""
    with writing(path, "factor") as fh:
        w = csv.writer(fh)
        for row in np.asarray(matrix, dtype=np.float64):
            w.writerow([repr(float(v)) for v in row])


def write_labels(path, labels):
    with writing(path, "labels") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "label"])
        for k, lab in enumerate(labels):
            w.writerow([k, lab])


def read_labels(path, n=None):
    """Labels of time steps 0..n-1 (n defaults to the row count).

    Every step needs exactly one row; a ``k`` that is out of range,
    repeated or missing is a ValidationError.
    """
    with reading(path, "labels") as fh:
        rows = list(csv.DictReader(fh))
    labels = [None] * (len(rows) if n is None else n)
    for row in rows:
        with parsing(f"labels file {path}"):
            k, label = int(row["k"]), row["label"]
        if not 0 <= k < len(labels) or labels[k] is not None:
            raise ValidationError(
                f"labels file {path}: k = {k} is out of range or repeated")
        labels[k] = label
    if None in labels:
        raise ValidationError(
            f"labels file {path} has no label for k = {labels.index(None)}")
    return labels


def write_verdicts(path, rows):
    """``rows`` are dicts keyed by the column names; floats are written with
    ``repr``, so they read back exactly."""
    with writing(path, "verdicts") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "g_raw", "p_env", "g_advised", "action"])
        for row in rows:
            w.writerow([row["t"], repr(row["g_raw"]), repr(row["p_env"]),
                        repr(row["g_advised"]), row["action"]])


def read_verdicts(path):
    """The ``{"t": int, "action": str}`` of every row of a verdicts file."""
    with reading(path, "verdicts") as fh:
        rows = list(csv.DictReader(fh))
    with parsing(f"verdicts file {path}"):
        return [{"t": int(row["t"]), "action": row["action"]}
                for row in rows]


def write_migrations(path, events):
    """One sorted-key JSON object per line."""
    with writing(path, "migrations") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True))
            fh.write("\n")


def write_traces(path, kinds, traces):
    """``driftwatch bench`` output: step,rmse,optimizer rows per kind."""
    with writing(path, "traces") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "rmse", "optimizer"])
        for kind in kinds:
            for step, value in traces[kind]:
                w.writerow([step, repr(value), kind.value])


# ---------------------------------------------------------------- bundle

def _encode_model(m: OcsvmModel) -> dict:
    return {
        "nu": to_hex(m.nu),
        "kernel": {"kind": m.kernel.kind, "sigma": to_hex(m.kernel.sigma)},
        "alpha": to_hex(m.alpha),
        "rho": to_hex(m.rho),
        "train_x": to_hex(m.x),
    }


def _decode_model(payload: dict) -> OcsvmModel:
    kernel = KernelSpec(payload["kernel"]["kind"],
                        from_hex(payload["kernel"]["sigma"]))
    return OcsvmModel(from_hex(payload["train_x"]), from_hex(payload["alpha"]),
                      from_hex(payload["rho"]), from_hex(payload["nu"]),
                      kernel)


def save_bundle(path, window, decomp: StreamDecomposition, model: OcsvmModel,
                snapshot, config: AdvisorConfig, lr_params, meta=None):
    f = decomp.factors
    st = decomp.state
    write_json(path, "bundle", {
        "window": window,
        "kind": decomp.kind.value,
        "factors": {"a": to_hex(f.a), "b": to_hex(f.b), "c": to_hex(f.c)},
        "state": {
            "vel_a": to_hex(st.vel_a), "vel_b": to_hex(st.vel_b),
            "vel_c": to_hex(st.vel_c),
            "friction": to_hex(st.friction),
            "perturb_sigma": to_hex(st.perturb_sigma),
            "l1_beta": to_hex(st.l1_beta),
            "step": st.step, "rng_seed": st.rng_seed,
            "rng_state": st.rng.bit_generator.state,
            "lr": {"a": to_hex(lr_params[0]), "b": to_hex(lr_params[1])},
        },
        "model": _encode_model(model),
        "snapshot": {"knn": to_hex(snapshot.knn_scores)},
        "config": {
            "k_neighbors": config.k_neighbors,
            "gamma_change": to_hex(config.gamma_change),
            "confidence": to_hex(config.confidence),
            "update_policy": config.update_policy.value,
            "threshold": to_hex(config.threshold),
        },
        "meta": meta or {},
    })


def load_bundle(path, window_slices):
    """(window, decomp, model, snapshot, config) from a bundle file.

    An unreadable file is an IoError; anything that is not a well-formed
    bundle (a window must be an int >= 1, every number finite, the model
    KKT) is a ValidationError. Keys it does not read, as older bundles'
    ``rank`` and ``snapshot.b``, are ignored.
    """
    payload = read_json(path, "bundle")
    with parsing(f"bundle {path}"):
        f = KruskalFactors(from_hex(payload["factors"]["a"]),
                           from_hex(payload["factors"]["b"]),
                           from_hex(payload["factors"]["c"]))
        sp = payload["state"]
        state = NesgdState(
            vel_a=from_hex(sp["vel_a"]),
            vel_b=from_hex(sp["vel_b"]),
            vel_c=from_hex(sp["vel_c"]),
            friction=from_hex(sp["friction"]),
            lr=LrSchedule(from_hex(sp["lr"]["a"]), from_hex(sp["lr"]["b"])),
            perturb_sigma=from_hex(sp["perturb_sigma"]),
            l1_beta=from_hex(sp["l1_beta"]),
            step=sp["step"],
            rng_seed=sp["rng_seed"],
        )
        state.rng.bit_generator.state = sp["rng_state"]
        decomp = StreamDecomposition(f, state, OptimizerKind(payload["kind"]),
                                     list(window_slices))
        model = _decode_model(payload["model"])
        snapshot = LocationSnapshot(from_hex(payload["snapshot"]["knn"]))
        cp = payload["config"]
        config = AdvisorConfig(
            k_neighbors=cp["k_neighbors"],
            gamma_change=from_hex(cp["gamma_change"]),
            confidence=from_hex(cp["confidence"]),
            update_policy=UpdatePolicy(cp["update_policy"]),
            threshold=from_hex(cp["threshold"]),
        )
        window = payload["window"]
    check_int(window, f"bundle {path}: window", 1)
    # the types' own checks reject NaN and inf in the scalars they bound
    finite = {"factors": (f.a, f.b, f.c),
              "state": (state.vel_a, state.vel_b, state.vel_c),
              "model": (model.x, model.alpha, model.rho),
              "snapshot": (snapshot.knn_scores,)}
    for section, values in finite.items():
        if not all(np.isfinite(v).all() for v in values):
            raise ValidationError(f"bundle {path}: {section} holds a number "
                                  f"that is not finite")
    try:
        kkt_partition(model)
    except KktViolationError as exc:
        raise ValidationError(f"bundle {path}: the model is not KKT: "
                              f"{exc}") from exc
    return window, decomp, model, snapshot, config
