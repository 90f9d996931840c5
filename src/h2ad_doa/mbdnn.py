"""Multi-branch MLP that learns the candidate-to-angle fusion.

The network replaces the clustering-plus-weighting stage: each group's
candidate angle vector feeds a private fully connected branch
(``M_q -> 4*M_q -> 2*M_q -> M_q``, ReLU throughout), the branch outputs
are concatenated through one shared ReLU layer, a linear head emits one
angle prediction per group, and a final single linear layer fuses the
per-group predictions into the DOA estimate.

Everything is plain numpy in float64: explicit forward pass, explicit
backprop, and a hand-rolled Adam loop, so training is bit-reproducible
from a seed.  Angles are handled in degrees throughout this module; the
candidate sets coming from the subspace stage are converted on entry.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .array_model import ArrayConfig
from .fusion import GroupFailureError, group_candidates
from .signal_sim import SimScenario, derive_seed
from .subspace import CandidateSet

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"MBDNN1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Stage names in training order; "joint" is the optional fine-tune.
STAGES = ("mb_fcnn", "fusion_net", "joint")


class ShapeMismatchError(ValueError):
    """Input whose shape does not match the model's feature layout."""


class NonFiniteLossError(RuntimeError):
    """Training loss left the finite range."""

    def __init__(self, stage: str, epoch: int, value: float):
        self.stage = stage
        self.epoch = epoch
        super().__init__(f"{stage} loss became {value} at epoch {epoch}")


class ModelFormatError(IOError):
    """A model file that cannot be loaded."""


class BadMagicError(ModelFormatError):
    pass


class DimMismatchError(ModelFormatError):
    pass


class TruncatedFileError(ModelFormatError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """Layer layout derived from the subarray sizes."""

    M: tuple[int, ...]

    @classmethod
    def from_config(cls, cfg: ArrayConfig) -> "MlpSpec":
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

    def backbone_names(self) -> list[str]:
        return [n for n, _ in self.spec.parameter_shapes() if not n.startswith("fusion_")]

    def fusion_names(self) -> list[str]:
        return ["fusion_w", "fusion_b"]


def init_model(spec: MlpSpec, seed: int = 0) -> MlpModel:
    """Fresh model: weights uniform in +-sqrt(6/(fan_in+fan_out)), zero biases."""
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
        raise ShapeMismatchError(
            f"features shape {np.shape(features)} does not match "
            f"feature length {spec.feature_length}"
        )
    return x


def _forward_cache(model: MlpModel, x: np.ndarray) -> dict:
    """Forward pass keeping every intermediate needed by backprop."""
    p = model.params
    offsets = model.spec.feature_offsets()
    cache: dict = {"x": x, "branch": []}
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


def forward(model: MlpModel, features: np.ndarray):
    """Run the network.

    Returns
    -------
    tuple
        ``(branch_outputs, merged, head, fused)`` where ``head`` has one
        angle prediction per group (degrees) and ``fused`` is the final
        DOA prediction per sample.
    """
    x = _as_batch(model.spec, features)
    cache = _forward_cache(model, x)
    offsets = model.spec.feature_offsets()
    branch_outputs = [
        cache["concat"][:, off: off + m] for off, m in zip(offsets, model.spec.M)
    ]
    return branch_outputs, cache["merged"], cache["head"], cache["fused"]


def loss_mb_fcnn(head: np.ndarray, label_tuple: np.ndarray) -> float:
    """Mean squared per-group error, averaged over groups and samples."""
    diff = head - label_tuple
    return float(np.mean(diff**2))


def loss_fusion(fused: np.ndarray, label_theta: np.ndarray) -> float:
    """Mean squared fused-angle error."""
    return float(np.mean((fused - label_theta) ** 2))


def loss_mbnn(head: np.ndarray, fused: np.ndarray) -> float:
    """Self-consistency loss between group predictions and fused output."""
    diff = head - fused[:, None]
    return float(np.mean(diff**2))


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
    cache = _forward_cache(model, x)
    n = x.shape[0]
    q = model.spec.num_groups
    if stage == "mb_fcnn":
        value = loss_mb_fcnn(cache["head"], label_tuple)
        d_head = 2.0 * (cache["head"] - label_tuple) / (n * q)
        return value, _backprop_backbone(model, cache, d_head)
    if stage == "fusion_net":
        value = loss_fusion(cache["fused"], label_theta)
        d_fused = (2.0 * (cache["fused"] - label_theta) / n)[:, None]
        return value, {
            "fusion_w": cache["head"].T @ d_fused,
            "fusion_b": d_fused.sum(axis=0),
        }
    if stage == "joint":
        value = loss_mbnn(cache["head"], cache["fused"])
        diff = cache["head"] - cache["fused"][:, None]
        d_head = 2.0 * diff / (n * q)
        d_fused = -2.0 * diff.sum(axis=1, keepdims=True) / (n * q)
        grads = _backprop_backbone(
            model, cache, d_head + d_fused @ model.params["fusion_w"].T
        )
        grads["fusion_w"] = cache["head"].T @ d_fused
        grads["fusion_b"] = d_fused.sum(axis=0)
        return value, grads
    raise ValueError(f"unknown stage {stage!r}")


@dataclass(frozen=True)
class TrainConfig:
    """One training stage's hyperparameters (Adam throughout)."""

    stage: str
    epochs: int = 100
    batch_size: int = 256
    lr: float = 1e-4
    seed: int = 0


@dataclass
class Dataset:
    """Training table: candidate features plus per-group and fused labels.

    ``features[n]`` concatenates the groups' ascending candidate angles
    (degrees); ``label_tuple[n, q]`` is group q's candidate nearest the
    true angle; ``label_theta[n]`` is the true angle itself.
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

    def save_csv(self, path) -> None:
        q = self.label_tuple.shape[1]
        p = self.features.shape[1]
        header = (
            ["snr_db", "theta_true"]
            + [f"label_{i + 1}" for i in range(q)]
            + [f"feat_{i + 1}" for i in range(p)]
        )
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for n in range(len(self)):
                row = (
                    [self.snr_db[n], self.label_theta[n]]
                    + list(self.label_tuple[n])
                    + list(self.features[n])
                )
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        labels = [h for h in header if h.startswith("label_")]
        feats = [h for h in header if h.startswith("feat_")]
        expected = ["snr_db", "theta_true"] + labels + feats
        if header != expected or not labels or not feats:
            raise ValueError(f"unrecognized dataset header {header}")
        table = np.array([[float(v) for v in row] for row in rows])
        table = table.reshape(-1, len(header))
        q = len(labels)
        return cls(
            features=table[:, 2 + q:],
            label_tuple=table[:, 2: 2 + q],
            label_theta=table[:, 1],
            snr_db=table[:, 0],
        )


def features_from_candidates(
    spec: MlpSpec, sets: Sequence[CandidateSet]
) -> np.ndarray:
    """Concatenate candidate sets into one feature row (degrees)."""
    if len(sets) != spec.num_groups:
        raise ShapeMismatchError(
            f"{len(sets)} candidate sets for {spec.num_groups} groups"
        )
    blocks = []
    for q, cs in enumerate(sets):
        angles = np.degrees(np.asarray(cs.angles, dtype=float))
        if angles.size != spec.M[q]:
            raise ShapeMismatchError(
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

    Every cell's scenario is built before the first trial, so an invalid
    angle, SNR or snapshot count raises ``ConfigError`` before any work.
    Cells where any group's subspace collapses are skipped and counted,
    not imputed.  Deterministic for a given master seed.
    """
    spec = MlpSpec.from_config(cfg)
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
    if skipped:
        logger.info("dataset generation skipped %d failed trials", skipped)
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
    the self-consistency loss.

    Returns
    -------
    (MlpModel, list of float)
        The model (same object) and the per-epoch loss history.
    """
    if cfg.stage not in STAGES:
        raise ValueError(f"unknown stage {cfg.stage!r}, expected one of {STAGES}")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.features.shape[1] != model.spec.feature_length:
        raise ShapeMismatchError(
            f"dataset feature length {dataset.features.shape[1]} does not "
            f"match model feature length {model.spec.feature_length}"
        )
    if cfg.stage == "mb_fcnn":
        trained = model.backbone_names()
    elif cfg.stage == "fusion_net":
        trained = model.fusion_names()
    else:
        trained = [n for n, _ in model.spec.parameter_shapes()]
    adam_m = {n: np.zeros_like(model.params[n]) for n in trained}
    adam_v = {n: np.zeros_like(model.params[n]) for n in trained}
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
                raise NonFiniteLossError(cfg.stage, epoch, value)
            epoch_loss += value * batch.size
            step += 1
            for name in trained:
                g = grads[name]
                adam_m[name] = ADAM_BETA1 * adam_m[name] + (1 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v[name] + (1 - ADAM_BETA2) * g**2
                m_hat = adam_m[name] / (1 - ADAM_BETA1**step)
                v_hat = adam_v[name] / (1 - ADAM_BETA2**step)
                model.params[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        history.append(epoch_loss / len(dataset))
    model.epochs_trained += cfg.epochs
    model.stage_losses[cfg.stage] = history[-1] if history else float("nan")
    return model, history


def _activation_pattern(model: MlpModel, x: np.ndarray) -> np.ndarray:
    cache = _forward_cache(model, x)
    bits = [cache["pre_merge"] > 0.0]
    for layers in cache["branch"]:
        bits.extend(pre > 0.0 for _, pre in layers)
    return np.concatenate([b.ravel() for b in bits])


def grad_check(
    model: MlpModel,
    sample: Dataset,
    params_per_loss: int = 100,
    step: float = 1e-6,
    seed: int = 0,
) -> float:
    """Central-difference audit of the analytic gradients.

    Samples parameters for each staged loss, perturbs them by ``step``,
    and compares the finite-difference slope to the backprop gradient.
    Parameters whose perturbation flips any ReLU pre-activation sign sit
    on a kink where the two-sided difference is meaningless, so they are
    excluded.  Error is relative to ``max(|analytic|, |numeric|, 1)``,
    the unit floor covering near-zero gradients where central
    differences bottom out on roundoff.

    Returns
    -------
    float
        Largest relative error over all sampled parameters and losses.
    """
    rng = np.random.default_rng(seed)
    x = _as_batch(model.spec, sample.features)
    worst = 0.0
    stage_params = {
        "mb_fcnn": model.backbone_names(),
        "fusion_net": model.fusion_names(),
        "joint": [n for n, _ in model.spec.parameter_shapes()],
    }
    for stage, names in stage_params.items():
        _, grads = _stage_loss_and_grads(
            model, stage, x, sample.label_tuple, sample.label_theta
        )
        sizes = np.array([model.params[n].size for n in names])
        total = int(sizes.sum())
        for flat in rng.choice(total, size=min(params_per_loss, total), replace=False):
            owner = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
            name = names[owner]
            idx = int(flat - np.concatenate(([0], np.cumsum(sizes)))[owner])
            tensor = model.params[name]
            original = tensor.flat[idx]
            tensor.flat[idx] = original + step
            plus, _ = _stage_loss_and_grads(
                model, stage, x, sample.label_tuple, sample.label_theta
            )
            pattern_plus = _activation_pattern(model, x)
            tensor.flat[idx] = original - step
            minus, _ = _stage_loss_and_grads(
                model, stage, x, sample.label_tuple, sample.label_theta
            )
            pattern_minus = _activation_pattern(model, x)
            tensor.flat[idx] = original
            if not np.array_equal(pattern_plus, pattern_minus):
                continue
            numeric = (plus - minus) / (2 * step)
            analytic = grads[name].flat[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst


def predict_doa(model: MlpModel, sets: Sequence[CandidateSet]) -> float:
    """Fused DOA prediction (degrees) from one trial's candidate sets."""
    features = features_from_candidates(model.spec, sets)
    _, _, _, fused = forward(model, features)
    return float(fused[0])


_FIXED_HEADER = struct.Struct("<6sI")  # magic, Q
_TAIL = struct.Struct("<IQqI3d")  # after M: merge width, params, seed, epochs, STAGES losses


def save_model(model: MlpModel, path) -> None:
    """Serialize: magic, dims, provenance, then tensors in declared order."""
    spec = model.spec
    head = [_FIXED_HEADER.pack(MODEL_MAGIC, spec.num_groups)]
    head.append(struct.pack(f"<{spec.num_groups}I", *spec.M))
    head.append(
        _TAIL.pack(
            spec.merge_width,
            spec.parameter_count,
            model.seed,
            model.epochs_trained,
            *[model.stage_losses.get(s, float("nan")) for s in STAGES],
        )
    )
    with open(path, "wb") as fh:
        fh.writelines(head)
        for name, _ in spec.parameter_shapes():
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_model(path) -> MlpModel:
    """Read a model file, validating magic, dimensions, and payload size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _FIXED_HEADER.size:
        raise TruncatedFileError(f"{path}: shorter than the fixed header")
    magic, num_groups = _FIXED_HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if not 1 <= num_groups <= 1024:
        raise DimMismatchError(f"{path}: implausible group count {num_groups}")
    offset = _FIXED_HEADER.size
    if len(blob) < offset + 4 * num_groups + _TAIL.size:
        raise TruncatedFileError(f"{path}: header cut short")
    m_values = struct.unpack_from(f"<{num_groups}I", blob, offset)
    offset += 4 * num_groups
    merge_width, total_params, seed, epochs, *losses = _TAIL.unpack_from(blob, offset)
    offset += _TAIL.size
    if any(m < 2 for m in m_values):
        raise DimMismatchError(f"{path}: subarray sizes {m_values} out of range")
    spec = MlpSpec(M=tuple(int(m) for m in m_values))
    if merge_width != spec.merge_width or total_params != spec.parameter_count:
        raise DimMismatchError(
            f"{path}: header dims disagree with layout derived from M={m_values}"
        )
    expected = total_params * 8
    payload = blob[offset:]
    if len(payload) < expected:
        raise TruncatedFileError(
            f"{path}: payload {len(payload)} bytes, need {expected}"
        )
    if len(payload) > expected:
        raise DimMismatchError(f"{path}: {len(payload) - expected} trailing bytes")
    params: dict[str, np.ndarray] = {}
    cursor = 0
    for name, shape in spec.parameter_shapes():
        count = int(np.prod(shape))
        chunk = np.frombuffer(payload, dtype="<f8", count=count, offset=cursor * 8)
        params[name] = chunk.reshape(shape).copy()
        cursor += count
    model = MlpModel(spec=spec, params=params, seed=int(seed), epochs_trained=int(epochs))
    model.stage_losses = dict(zip(STAGES, (float(v) for v in losses)))
    return model
