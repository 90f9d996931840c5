"""Test-only MLP oracles: a central-difference audit of the backprop
gradients of every training stage, and the foreign files a dataset
loader must refuse."""

import io
import zipfile

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
        _, grads = _stage_loss_and_grads(
            model, stage, x, sample.label_tuple, sample.label_theta
        )
        # the stage's trained parameters, in declared order
        names = [n for n, _ in model.spec.parameter_shapes() if n in grads]
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


def foreign_dataset_files(ds: Dataset) -> dict[str, bytes]:
    """Files :meth:`Dataset.load` must refuse, built around the tables of
    ``ds`` (at least one row): each differs from a saved dataset in one
    way, a table missing or added, of another dtype, rank or row count,
    or the file not an ``.npz`` archive of arrays at all."""
    tables = {"features": ds.features, "label_tuple": ds.label_tuple,
              "label_theta": ds.label_theta, "snr_db": ds.snr_db}

    def npy(table):
        buf = io.BytesIO()
        np.save(buf, table)
        return buf.getvalue()

    def archive(**changes):  # each value an array, raw member bytes, or None to drop
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for name, table in {**tables, **changes}.items():
                if table is not None:
                    zf.writestr(f"{name}.npy", table if isinstance(table, bytes) else npy(table))
        return buf.getvalue()

    # a header claiming 1e15 rows, which no allocation can hold
    forged = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        forged, {"descr": "<f8", "fortran_order": False, "shape": (10**15, ds.features.shape[1])})
    return {
        "csv-text": b"a,b,c\n1,2,3\n",
        "empty": b"",
        "missing-table": archive(snr_db=None),
        "extra-table": archive(skipped=np.zeros(1)),
        "object-dtype": archive(features=ds.features.astype(object)),
        "string-dtype": archive(label_theta=ds.label_theta.astype(str)),
        "complex-dtype": archive(label_tuple=ds.label_tuple.astype(complex)),
        "wrong-rank": archive(label_theta=ds.label_theta[:, None]),
        "mismatched-rows": archive(snr_db=np.append(ds.snr_db, 0.0)),
        "text-member": archive(features=b"not an array"),
        "forged-shape": archive(features=forged.getvalue()),
        "bare-npy": npy(ds.features),
    }
