"""Test-only MLP oracle: a central-difference audit of the backprop
gradients of every training stage."""

import numpy as np

from h2ad_doa.mbdnn import (
    STAGES,
    Dataset,
    MlpModel,
    _stage_loss_and_grads,
    forward,
)


def _activation_pattern(model: MlpModel, x: np.ndarray) -> np.ndarray:
    cache = forward(model, x)
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
    x = sample.features
    worst = 0.0
    for stage in STAGES:
        names = model.trained_names(stage)
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
