"""Command-line front end.

Subcommands: validate, simulate, estimate, dataset, train, predict,
bench.  Exit codes: 0 on success, 2 for configuration/usage problems,
3 for runtime failures (estimation aborts, unreadable artifacts).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench as bench_mod
from . import mbdnn
from .array_model import ConfigError, load_config
from .fusion import fuse_candidates, fused_crlb, group_candidates
from .signal_sim import SimScenario, simulate_groups


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta0-deg", type=float, default=41.0)
    parser.add_argument("--snr-db", type=float, default=0.0)
    parser.add_argument("--snapshots", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)


def _scenario(args) -> SimScenario:
    cfg = load_config(args.config)
    return SimScenario(
        cfg=cfg,
        theta0=math.radians(args.theta0_deg),
        snr_db=args.snr_db,
        snapshots=args.snapshots,
        seed=args.seed,
    )


def _parse_grid(text: str, cast):
    try:
        return tuple(cast(v) for v in text.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"bad grid {text!r}: {err}") from err


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"groups={cfg.num_groups} M={list(cfg.M)} K={list(cfg.K)}")
    print(f"total_antennas={cfg.total_antennas}")
    return 0


def _cmd_simulate(args) -> int:
    for snap in simulate_groups(_scenario(args)):
        path = f"{args.out}.group{snap.group_index}.npy"
        np.save(path, snap.data)
        print(f"wrote {path} ({snap.num_subarrays}x{snap.snapshots})")
    return 0


def _cmd_estimate(args) -> int:
    scenario = _scenario(args)
    cfg, sets = scenario.cfg, group_candidates(scenario)
    ratio = fuse_candidates(cfg, sets, "crlb_ratio")
    exact = None  # noiseless, every bound is zero: inverse-bound weights are undefined
    if scenario.snr_db < math.inf:
        exact = fuse_candidates(cfg, sets, "exact_crlb", scenario.snr_db, scenario.snapshots)
    crlb = exact.crlb if exact else fused_crlb(cfg, ratio.selected.mean, math.inf,
                                               scenario.snapshots)
    result = {
        "candidates_deg": {
            str(cs.group_index): [float(v) for v in np.degrees(cs.angles)]
            for cs in sets
        },
        "phase_rad": {str(cs.group_index): cs.phase_hat for cs in sets},
        "tuple_deg": [float(v) for v in np.degrees(ratio.selected.angles)],
        "tuple_indices": list(ratio.selected.member_indices),
        "dispersion_rad2": ratio.selected.dispersion,
        "weights_crlb_ratio": [float(w) for w in ratio.weights],
        "weights_exact_crlb": None if exact is None else [float(w) for w in exact.weights],
        "crlb_per_group_rad2": [float(c) for c in crlb.per_group],
        "crlb_fused_rad2": crlb.fused_bound,
        "fused_deg_crlb_ratio": math.degrees(ratio.theta_hat),
        "fused_deg_exact_crlb": None if exact is None else math.degrees(exact.theta_hat),
    }
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


def _cmd_dataset(args) -> int:
    cfg = load_config(args.config)
    if not (args.theta_step > 0 and args.snr_step > 0):
        raise ConfigError("--theta-step and --snr-step must be positive")
    for flag in ("theta_min", "theta_max", "snr_min", "snr_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ConfigError(f"--{flag.replace('_', '-')}={value} must be finite")
    thetas = np.arange(args.theta_min, args.theta_max + 1e-9, args.theta_step)
    snrs = np.arange(args.snr_min, args.snr_max + 1e-9, args.snr_step)
    ds = mbdnn.generate_dataset(
        cfg,
        thetas_deg=thetas,
        snrs_db=snrs,
        trials_per_cell=args.trials,
        snapshots=args.snapshots,
        master_seed=args.seed,
    )
    ds.save(args.out)
    print(f"wrote {args.out}: {len(ds)} samples, {ds.skipped} skipped")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec = mbdnn.MlpSpec.from_config(cfg)
    stages = ("mb_fcnn", "fusion_net") if args.stage == "all" else (args.stage,)
    train_cfgs = [
        mbdnn.TrainConfig(
            stage=stage,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            seed=args.seed,
        )
        for stage in stages
    ]
    dataset = mbdnn.Dataset.load(args.dataset)
    if args.model_in:
        model = mbdnn.load_model_for(cfg, args.model_in)
    else:
        model = mbdnn.init_model(spec, seed=args.seed)
    for train_cfg in train_cfgs:
        _, history = mbdnn.train(model, dataset, train_cfg)
        print(f"stage {train_cfg.stage}: final loss {history[-1]:.6g} deg^2")
    mbdnn.save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    scenario = _scenario(args)
    model = mbdnn.load_model_for(scenario.cfg, args.model)
    sets = group_candidates(scenario)
    prediction = mbdnn.predict_doa(model, sets)
    if args.json:
        print(json.dumps({"theta_hat_deg": prediction}))
    else:
        print(f"theta_hat_deg: {prediction}")
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    spec = bench_mod.BenchSpec(
        cfg=cfg,
        theta0_deg=args.theta0_deg,
        snr_grid=_parse_grid(args.snr_grid, float),
        snapshot_grid=_parse_grid(args.snapshot_grid, int),
        k_grid=_parse_grid(args.k_grid, int) if args.k_grid else None,
        trials=args.trials,
        methods=tuple(m.strip() for m in args.methods.split(",")),
        model_path=args.model,
        master_seed=args.seed,
    )
    rows = bench_mod.run_sweep(spec)
    text = bench_mod.emit_csv(rows, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    if args.emit_plot_data:
        for path in bench_mod.emit_plot_data(rows, args.emit_plot_data):
            print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2ad-doa",
        description="Grouped coprime-subarray DOA estimation and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file and report N")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="write per-group snapshot files")
    p.add_argument("--config", required=True)
    _add_scenario_args(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("estimate", help="run the estimation pipeline once")
    p.add_argument("--config", required=True)
    _add_scenario_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("dataset", help="generate a training dataset (.npz archive)")
    p.add_argument("--config", required=True)
    p.add_argument("--theta-min", type=float, default=-89.0)
    p.add_argument("--theta-max", type=float, default=89.0)
    p.add_argument("--theta-step", type=float, default=1.0)
    p.add_argument("--snr-min", type=float, default=-15.0)
    p.add_argument("--snr-max", type=float, default=15.0)
    p.add_argument("--snr-step", type=float, default=5.0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--snapshots", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_dataset)

    p = sub.add_parser("train", help="train the fusion network")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--stage", choices=(*mbdnn.STAGES, "all"), default="all",
                   help="all runs mb_fcnn then fusion_net; joint is the "
                        "optional fine-tune, run on its own")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-in", help="continue from an existing model file")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="network DOA prediction for one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    _add_scenario_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("bench", help="Monte-Carlo RMSE sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--theta0-deg", type=float, default=41.0)
    p.add_argument("--snr-grid", default="-15,-10,-5,0,5,10,15")
    p.add_argument("--snapshot-grid", default="200")
    p.add_argument("--k-grid", default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--methods", default="crlb_ratio")
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--emit-plot-data", metavar="PREFIX")
    p.set_defaults(handler=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
