"""Golden outputs: seeded estimates that show whether behaviour moved.

    python3 perfbench/golden.py           # compare; exit 1 if any output moved
    python3 perfbench/golden.py --write   # regenerate golden.json and the model

The package is imported from the checkout's ``src``.  The file
holds 50 ``estimate_doa`` outputs (25 seeded scenarios, both weightings)
and 10 ``predict_doa`` outputs from the fixed model in
``golden_model.bin``.  Values are stored as ``float.hex`` so the
comparison is bit for bit; a failed trial stores its exception class.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from h2ad_doa import (  # noqa: E402
    ArrayConfig,
    MlpSpec,
    SimScenario,
    TrainConfig,
    derive_seed,
    estimate_doa,
    generate_dataset,
    group_candidates,
    init_model,
    load_model,
    predict_doa,
    save_model,
    train,
)
from h2ad_doa.bench import TRIAL_ERRORS  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
MODEL = os.path.join(HERE, "golden_model.bin")
MASTER = 20260814

CONFIGS = (
    ArrayConfig(M=(11, 13, 17), K=(16, 16, 16)),
    ArrayConfig(M=(7, 11, 13), K=(8, 12, 16)),
    ArrayConfig(M=(11, 13, 17, 19, 23), K=(4, 4, 4, 4, 4)),
)
THETAS_DEG = (41.0, -63.5, 12.25, -7.0, 55.0)
SNRS_DB = (-5.0, 0.0, 10.0, 20.0, 30.0)
MLP_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def scenarios():
    """25 seeded scenarios over configs, angles and SNRs."""
    for i in range(25):
        yield SimScenario(
            cfg=CONFIGS[i % len(CONFIGS)],
            theta0=math.radians(THETAS_DEG[i % len(THETAS_DEG)]),
            snr_db=SNRS_DB[(i // len(THETAS_DEG)) % len(SNRS_DB)],
            snapshots=200,
            seed=derive_seed(MASTER, i),
        )


def _describe(fn) -> str:
    try:
        return float(fn()).hex()
    except TRIAL_ERRORS as err:
        return type(err).__name__


def outputs(model) -> dict:
    out = {}
    for i, sc in enumerate(scenarios()):
        for method in ("crlb_ratio", "exact_crlb"):
            out[f"estimate/{i}/{method}"] = _describe(
                lambda: estimate_doa(sc, method).theta_hat
            )
    for i in range(10):
        sc = SimScenario(MLP_CFG, math.radians(-80.0 + 17.0 * i), 10.0 - 3.0 * i, 200,
                         derive_seed(MASTER, 100, i))
        out[f"predict/{i}"] = _describe(lambda: predict_doa(model, group_candidates(sc)))
    return out


def fit_model():
    """The small fixed model: a few epochs on a coarse training grid."""
    dataset = generate_dataset(MLP_CFG, np.arange(-80.0, 81.0, 20.0), (0.0, 10.0), 2,
                               200, MASTER)
    model = init_model(MlpSpec.from_config(MLP_CFG), seed=7)
    for stage in ("mb_fcnn", "fusion_net"):
        train(model, dataset, TrainConfig(stage=stage, epochs=20, lr=1e-3, seed=3))
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.write:
        save_model(fit_model(), MODEL)
        with open(GOLDEN, "w") as fh:
            json.dump(outputs(load_model(MODEL)), fh, indent=1)
            fh.write("\n")
        print(f"wrote {GOLDEN} and {MODEL}")
        return 0
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    current = outputs(load_model(MODEL))
    moved = [k for k in golden if current.get(k) != golden[k]]
    for key in moved:
        print(f"moved {key}: {golden[key]} -> {current.get(key)}")
    print(f"golden: {len(golden) - len(moved)} of {len(golden)} outputs unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
