"""Multi-branch MLP that learns the candidate-to-angle fusion.

The network replaces the clustering-plus-weighting stage: each group's
candidate angle vector feeds a private fully connected branch
(``M_q -> 4*M_q -> 2*M_q -> M_q``, ReLU throughout), the branch outputs
are concatenated through one shared ReLU layer, a linear head emits one
angle prediction per group, and a final single linear layer fuses the
per-group predictions into the DOA estimate.

Everything is plain numpy in float64: explicit forward pass, explicit
backprop, and a hand-rolled Adam loop, so training is bit-reproducible
from a seed; a stage trains exactly the parameters its loss has gradients
for.  A model file is one :func:`_header` and the float64 parameters, and
every file :func:`load_model` refuses raises :class:`ModelFormatError`.
Angles are handled in degrees throughout this module; the candidate sets
coming from the subspace stage are converted on entry.
"""

from __future__ import annotations

import math
import struct
import zipfile
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .array_model import ArrayConfig, ConfigError, check_integer, check_real
from .fusion import GroupFailureError, group_candidates
from .signal_sim import SimScenario, derive_seed
from .subspace import CandidateSet

MODEL_MAGIC = b"MBDNN1"

#: Largest model or training seed; a saved model's seed is a signed 64-bit field.
MAX_MODEL_SEED = 2**63 - 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Stage names in training order; "joint" is the optional fine-tune.
STAGES = ("mb_fcnn", "fusion_net", "joint")

#: The tables of a saved :class:`Dataset` and the rank of each.
_TABLE_RANKS = {"features": 2, "label_tuple": 2, "label_theta": 1, "snr_db": 1}


class ModelFormatError(IOError):
    """A model file that cannot be loaded; every refusal of :func:`load_model`."""


@dataclass(frozen=True)
class MlpSpec:
    """Layer layout derived from the subarray sizes."""

    M: tuple[int, ...]

    @classmethod
    def from_config(cls, cfg: ArrayConfig) -> "MlpSpec":
        """Layout for ``cfg``: one branch of ``M_q`` candidates per group."""
        return cls(M=tuple(int(m) for m in cfg.M))

    @property
    def num_groups(self) -> int:
        return len(self.M)

    @property
    def feature_length(self) -> int:
        return int(sum(self.M))

    @property
    def merge_width(self) -> int:
        return math.ceil(self.feature_length / 2)

    def branch_widths(self, q: int) -> tuple[int, int, int, int]:
        m = self.M[q]
        return (m, 4 * m, 2 * m, m)

    def feature_offsets(self) -> list[int]:
        """Start offset of each group's block in the feature vector."""
        return [int(v) for v in np.cumsum((0,) + self.M)[:-1]]

    def parameter_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Declared (name, shape) order; serialization follows it."""
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for q in range(self.num_groups):
            w = self.branch_widths(q)
            for layer in range(3):
                shapes.append((f"branch{q}_w{layer + 1}", (w[layer], w[layer + 1])))
                shapes.append((f"branch{q}_b{layer + 1}", (w[layer + 1],)))
        shapes.append(("merge_w", (self.feature_length, self.merge_width)))
        shapes.append(("merge_b", (self.merge_width,)))
        shapes.append(("head_w", (self.merge_width, self.num_groups)))
        shapes.append(("head_b", (self.num_groups,)))
        shapes.append(("fusion_w", (self.num_groups, 1)))
        shapes.append(("fusion_b", (1,)))
        return shapes

    @property
    def parameter_count(self) -> int:
        return sum(int(np.prod(s)) for _, s in self.parameter_shapes())


@dataclass
class MlpModel:
    """Network parameters plus training provenance."""

    spec: MlpSpec
    params: dict[str, np.ndarray]
    seed: int = 0
    epochs_trained: int = 0
    stage_losses: dict[str, float] = field(
        default_factory=lambda: {s: float("nan") for s in STAGES}
    )


def init_model(spec: MlpSpec, seed: int = 0) -> MlpModel:
    """Fresh model: weights uniform in +-sqrt(6/(fan_in+fan_out)), zero biases;
    a ``seed`` that is not an integer in ``[0, MAX_MODEL_SEED]`` raises
    ``ConfigError``."""
    check_integer("seed", seed, 0, MAX_MODEL_SEED)
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in spec.parameter_shapes():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
    return MlpModel(spec=spec, params=params, seed=seed)


def _as_batch(spec: MlpSpec, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.feature_length:
        raise ValueError(
            f"features shape {np.shape(features)} does not match "
            f"feature length {spec.feature_length}"
        )
    return x


def forward(model: MlpModel, features: np.ndarray) -> dict:
    """Run the network on one feature row or a batch of them.

    Returns
    -------
    dict
        Every intermediate backprop needs: ``branch`` (per group, each
        layer's input and pre-activation), ``concat``, ``pre_merge``,
        ``merged``, ``head`` (one angle prediction per group, degrees)
        and ``fused`` (the final DOA prediction per sample).
    """
    x = _as_batch(model.spec, features)
    p = model.params
    offsets = model.spec.feature_offsets()
    cache: dict = {"branch": []}
    blocks = []
    for q in range(model.spec.num_groups):
        xq = x[:, offsets[q]: offsets[q] + model.spec.M[q]]
        layers = []
        a = xq
        for layer in range(1, 4):
            pre = a @ p[f"branch{q}_w{layer}"] + p[f"branch{q}_b{layer}"]
            post = np.maximum(pre, 0.0)
            layers.append((a, pre))
            a = post
        cache["branch"].append(layers)
        blocks.append(a)
    concat = np.concatenate(blocks, axis=1)
    pre_merge = concat @ p["merge_w"] + p["merge_b"]
    merged = np.maximum(pre_merge, 0.0)
    head = merged @ p["head_w"] + p["head_b"]
    fused = (head @ p["fusion_w"] + p["fusion_b"])[:, 0]
    cache.update(
        concat=concat, pre_merge=pre_merge, merged=merged, head=head, fused=fused
    )
    return cache


def _backprop_backbone(model: MlpModel, cache: dict, d_head: np.ndarray) -> dict:
    """Gradients of all backbone parameters given dL/d(head)."""
    p = model.params
    grads: dict[str, np.ndarray] = {}
    grads["head_w"] = cache["merged"].T @ d_head
    grads["head_b"] = d_head.sum(axis=0)
    d_merged = d_head @ p["head_w"].T
    d_pre_merge = d_merged * (cache["pre_merge"] > 0.0)
    grads["merge_w"] = cache["concat"].T @ d_pre_merge
    grads["merge_b"] = d_pre_merge.sum(axis=0)
    d_concat = d_pre_merge @ p["merge_w"].T
    offsets = model.spec.feature_offsets()
    for q in range(model.spec.num_groups):
        d_post = d_concat[:, offsets[q]: offsets[q] + model.spec.M[q]]
        for layer in range(3, 0, -1):
            a_in, pre = cache["branch"][q][layer - 1]
            d_pre = d_post * (pre > 0.0)
            grads[f"branch{q}_w{layer}"] = a_in.T @ d_pre
            grads[f"branch{q}_b{layer}"] = d_pre.sum(axis=0)
            if layer > 1:
                d_post = d_pre @ p[f"branch{q}_w{layer}"].T
    return grads


def _stage_loss_and_grads(
    model: MlpModel,
    stage: str,
    x: np.ndarray,
    label_tuple: np.ndarray | None,
    label_theta: np.ndarray | None,
) -> tuple[float, dict]:
    """Mean squared residual of ``stage`` and its gradients.

    ``mb_fcnn`` fits the head to the per-group labels, ``fusion_net`` the
    fused output to the true angle, and ``joint`` the head to the fused
    output (self-consistency).  The gradients are exactly what the stage
    trains: the backbone, only ``fusion_w`` and ``fusion_b``, or everything.
    """
    cache = forward(model, x)
    head, fused = cache["head"], cache["fused"]
    n = x.shape[0]
    q = model.spec.num_groups
    d_head = d_fused = None
    if stage == "mb_fcnn":
        diff = head - label_tuple
        d_head = 2.0 * diff / (n * q)
    elif stage == "fusion_net":
        diff = fused - label_theta
        d_fused = (2.0 * diff / n)[:, None]
    elif stage == "joint":
        diff = head - fused[:, None]
        d_fused = -2.0 * diff.sum(axis=1, keepdims=True) / (n * q)
        d_head = 2.0 * diff / (n * q) + d_fused @ model.params["fusion_w"].T
    else:
        raise ValueError(f"unknown stage {stage!r}")
    grads = {} if d_head is None else _backprop_backbone(model, cache, d_head)
    if d_fused is not None:
        grads["fusion_w"] = head.T @ d_fused
        grads["fusion_b"] = d_fused.sum(axis=0)
    return float(np.mean(diff**2)), grads


@dataclass(frozen=True)
class TrainConfig:
    """One training stage's hyperparameters (Adam throughout).

    Construction checks them: an unknown stage, an epoch count or batch
    size that is not an integer of at least 1, a seed that is not one in
    ``[0, MAX_MODEL_SEED]``, or a learning rate that is not a finite real
    number of at least 0 raises ``ConfigError``.  A learning rate of 0 is
    legal and leaves the parameters unchanged.
    """

    stage: str
    epochs: int = 100
    batch_size: int = 256
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        for name, low in (("epochs", 1), ("batch_size", 1)):
            check_integer(name, getattr(self, name), low)
        check_integer("seed", self.seed, 0, MAX_MODEL_SEED)
        check_real("lr", self.lr)
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr={self.lr} must be finite and >= 0")


@dataclass
class Dataset:
    """Training table: candidate features plus per-group and fused labels.

    ``features[n]`` concatenates the groups' ascending candidate angles
    (degrees); ``label_tuple[n, q]`` is group q's candidate nearest the
    true angle; ``label_theta[n]`` is the true angle itself.  :meth:`save`
    keeps these and ``snr_db`` as one ``.npz`` archive, ``skipped`` aside.
    """

    features: np.ndarray
    label_tuple: np.ndarray
    label_theta: np.ndarray
    snr_db: np.ndarray
    skipped: int = 0

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, index) -> "Dataset":
        return Dataset(
            features=self.features[index],
            label_tuple=self.label_tuple[index],
            label_theta=self.label_theta[index],
            snr_db=self.snr_db[index],
            skipped=0,
        )

    def save(self, path) -> None:
        """Write the four tables to ``path`` itself as one ``.npz`` archive
        (through an open file: :func:`numpy.savez` suffixes a bare path)."""
        with open(path, "wb") as fh:
            np.savez(fh, **{name: getattr(self, name) for name in _TABLE_RANKS})

    @classmethod
    def load(cls, path) -> "Dataset":
        """Inverse of :meth:`save`.

        Raises ``ValueError`` for any file that is not exactly the four
        real-valued tables of one row count: a missing or extra table, a
        non-numeric or complex dtype, a wrong rank, mismatched row counts,
        a table header claiming more rows than memory holds, a bare
        ``.npy`` or a pickle, and every file cut short.
        """
        try:
            archive = np.load(path, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a bare .npy array")
            with archive:
                tables = {name: archive[name] for name in archive.files}
        except (ValueError, EOFError, zipfile.BadZipFile, MemoryError) as err:
            # numpy raises the first three for a cut file, by where the cut
            # falls, and MemoryError for a table header claiming too much
            raise ValueError(f"{path}: not a dataset archive, or cut short ({err})") from err
        if sorted(tables) != sorted(_TABLE_RANKS):
            raise ValueError(f"{path}: tables {sorted(tables)}, expected {sorted(_TABLE_RANKS)}")
        for name, rank in _TABLE_RANKS.items():
            table = tables[name]
            # a member that is not an .npy loads as its raw bytes
            if not (isinstance(table, np.ndarray) and table.dtype.kind in "iuf"
                    and table.ndim == rank):
                raise ValueError(f"{path}: table {name!r} is not a real {rank}-D array")
        if len({table.shape[0] for table in tables.values()}) != 1:
            raise ValueError(f"{path}: tables of different row counts")
        return cls(**tables)


def features_from_candidates(
    spec: MlpSpec, sets: Sequence[CandidateSet]
) -> np.ndarray:
    """Concatenate candidate sets into one feature row (degrees)."""
    if len(sets) != spec.num_groups:
        raise ValueError(
            f"{len(sets)} candidate sets for {spec.num_groups} groups"
        )
    blocks = []
    for q, cs in enumerate(sets):
        angles = np.degrees(np.asarray(cs.angles, dtype=float))
        if angles.size != spec.M[q]:
            raise ValueError(
                f"group {q} has {angles.size} candidates, expected {spec.M[q]}"
            )
        blocks.append(np.sort(angles))
    return np.concatenate(blocks)


def generate_dataset(
    cfg: ArrayConfig,
    thetas_deg: Sequence[float],
    snrs_db: Sequence[float],
    trials_per_cell: int,
    snapshots: int = 200,
    master_seed: int = 0,
) -> Dataset:
    """Run the front end over a (theta, snr) grid and collect samples.

    Every cell's scenario is checked before the first trial, so an
    invalid angle, SNR or snapshot count, an empty grid, a
    ``trials_per_cell`` that is not an integer of at least 1 or a
    ``master_seed`` that is not one of at least 0 raises ``ConfigError``
    before any work.
    Cells where any group's subspace collapses are skipped and counted,
    not imputed.  Deterministic for a given master seed.
    """
    spec = MlpSpec.from_config(cfg)
    if len(thetas_deg) == 0 or len(snrs_db) == 0:
        raise ConfigError("empty angle or SNR grid")
    check_integer("trials_per_cell", trials_per_cell, 1)
    check_integer("master_seed", master_seed, 0)
    offsets = spec.feature_offsets()
    cells = [
        (ti, si, float(theta_deg),
         SimScenario(cfg=cfg, theta0=math.radians(float(theta_deg)), snr_db=float(snr),
                     snapshots=snapshots))
        for ti, theta_deg in enumerate(thetas_deg)
        for si, snr in enumerate(snrs_db)
    ]
    features, label_tuple, label_theta, snr_col = [], [], [], []
    skipped = 0
    for ti, si, theta_deg, cell in cells:
        for trial in range(trials_per_cell):
            scenario = replace(cell, seed=derive_seed(master_seed, ti, si, trial))
            try:
                sets = group_candidates(scenario)
            except GroupFailureError:
                skipped += 1
                continue
            row = features_from_candidates(spec, sets)
            features.append(row)
            label_tuple.append(
                [
                    row[off: off + m][np.argmin(np.abs(row[off: off + m] - theta_deg))]
                    for off, m in zip(offsets, spec.M)
                ]
            )
            label_theta.append(theta_deg)
            snr_col.append(cell.snr_db)
    return Dataset(
        features=np.array(features).reshape(-1, spec.feature_length),
        label_tuple=np.array(label_tuple).reshape(-1, spec.num_groups),
        label_theta=np.array(label_theta),
        snr_db=np.array(snr_col),
        skipped=skipped,
    )


def train(model: MlpModel, dataset: Dataset, cfg: TrainConfig):
    """Run one training stage in place.

    ``mb_fcnn`` fits the branch/merge/head stack to the per-group
    labels; ``fusion_net`` fits only the final linear layer to the true
    angle with the backbone frozen; ``joint`` fine-tunes everything on
    the self-consistency loss.  A stage trains exactly the parameters its
    loss has gradients for, and Adam keeps moments for those alone.

    A dataset without one model-length feature row, one label per group
    and one true angle per sample raises ``ValueError`` first, and a loss
    that leaves the finite range raises ``RuntimeError`` naming the stage,
    epoch and value.

    Returns
    -------
    (MlpModel, list of float)
        The model (same object) and the per-epoch loss history.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.features.shape[1] != model.spec.feature_length:
        raise ValueError(
            f"dataset feature length {dataset.features.shape[1]} does not "
            f"match model feature length {model.spec.feature_length}"
        )
    rows, groups = len(dataset), model.spec.num_groups
    for name, shape in (("label_tuple", (rows, groups)), ("label_theta", (rows,))):
        actual = np.shape(getattr(dataset, name))
        if actual != shape:
            raise ValueError(
                f"dataset {name} shape {actual}, expected {shape} for {rows} "
                f"samples of {groups} groups"
            )
    adam_m, adam_v = {}, {}  # Adam moments of each parameter in the gradients
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(dataset), cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            value, grads = _stage_loss_and_grads(
                model,
                cfg.stage,
                dataset.features[batch],
                dataset.label_tuple[batch],
                dataset.label_theta[batch],
            )
            if not np.isfinite(value):
                raise RuntimeError(f"{cfg.stage} loss became {value} at epoch {epoch}")
            epoch_loss += value * batch.size
            step += 1
            for name, g in grads.items():
                adam_m[name] = ADAM_BETA1 * adam_m.get(name, 0.0) + (1 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v.get(name, 0.0) + (1 - ADAM_BETA2) * g**2
                m_hat = adam_m[name] / (1 - ADAM_BETA1**step)
                v_hat = adam_v[name] / (1 - ADAM_BETA2**step)
                model.params[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        history.append(epoch_loss / len(dataset))
    model.epochs_trained += cfg.epochs
    model.stage_losses[cfg.stage] = history[-1]
    return model, history


def predict_doa(model: MlpModel, sets: Sequence[CandidateSet]) -> float:
    """Fused DOA prediction (degrees) from one trial's candidate sets."""
    features = features_from_candidates(model.spec, sets)
    return float(forward(model, features)["fused"][0])


_MAGIC_AND_Q = "<6sI"


def _header(num_groups: int) -> struct.Struct:
    """The model file header for ``num_groups`` groups, little-endian with
    no padding: magic, Q, the Q subarray sizes, merge width, parameter
    count, seed, epochs trained and the loss of each of :data:`STAGES`."""
    return struct.Struct(f"{_MAGIC_AND_Q}{num_groups}IIQqI3d")


def save_model(model: MlpModel, path) -> None:
    """Write ``model`` to ``path``: its :func:`_header`, then every parameter
    as little-endian float64 in :meth:`MlpSpec.parameter_shapes` order."""
    spec = model.spec
    header = _header(spec.num_groups).pack(
        MODEL_MAGIC, spec.num_groups, *spec.M, spec.merge_width, spec.parameter_count,
        model.seed, model.epochs_trained,
        *[model.stage_losses.get(s, float("nan")) for s in STAGES],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for name, _ in spec.parameter_shapes():
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_model(path) -> MlpModel:
    """Read a model file written by :func:`save_model`.  ``ModelFormatError``
    refuses a file cut short, bad magic, a group count outside [1, 1024], a
    subarray size below 2, header dims other than its M's layout, or
    trailing bytes, and ``OSError`` a file that cannot be read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < struct.calcsize(_MAGIC_AND_Q):
        raise ModelFormatError(f"{path}: shorter than the fixed header")
    magic, num_groups = struct.unpack_from(_MAGIC_AND_Q, blob)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}")
    if not 1 <= num_groups <= 1024:
        raise ModelFormatError(f"{path}: implausible group count {num_groups}")
    header = _header(num_groups)
    if len(blob) < header.size:
        raise ModelFormatError(f"{path}: header cut short")
    fields = header.unpack_from(blob)
    m_values = fields[2: 2 + num_groups]
    merge_width, total_params, seed, epochs, *losses = fields[2 + num_groups:]
    if any(m < 2 for m in m_values):
        raise ModelFormatError(f"{path}: subarray sizes {m_values} out of range")
    spec = MlpSpec(M=m_values)
    if merge_width != spec.merge_width or total_params != spec.parameter_count:
        raise ModelFormatError(
            f"{path}: header dims disagree with layout derived from M={m_values}"
        )
    expected, payload = total_params * 8, len(blob) - header.size
    if payload < expected:
        raise ModelFormatError(f"{path}: payload {payload} bytes, need {expected}")
    if payload > expected:
        raise ModelFormatError(f"{path}: {payload - expected} trailing bytes")
    shapes = spec.parameter_shapes()
    flat = np.frombuffer(blob, dtype="<f8", offset=header.size)
    ends = np.cumsum([math.prod(shape) for _, shape in shapes])[:-1]
    params = {name: chunk.reshape(shape).copy()
              for (name, shape), chunk in zip(shapes, np.split(flat, ends))}
    return MlpModel(spec=spec, params=params, seed=seed, epochs_trained=epochs,
                    stage_losses=dict(zip(STAGES, losses)))


def load_model_for(cfg: ArrayConfig, path) -> MlpModel:
    """Load the model at ``path`` and check that it fits ``cfg``.

    A model saved for other subarray sizes would read the wrong groups'
    candidates, or none, so it is refused.

    Raises
    ------
    ConfigError
        If the model's ``M`` differs from ``cfg``'s.
    ModelFormatError, OSError
        If the file cannot be read as a model.
    """
    spec = MlpSpec.from_config(cfg)
    model = load_model(path)
    if model.spec != spec:
        raise ConfigError(
            f"model {path} was saved for M={model.spec.M}, the config has M={spec.M}"
        )
    return model
