import json
import math
import types

import numpy as np
import pytest

from h2ad_doa import bench, mbdnn
from h2ad_doa.array_model import ArrayConfig, save_config
from h2ad_doa.bench import (
    CSV_HEADER,
    BenchSpec,
    EmptyTrialSetError,
    ModelLoadError,
    ResultRow,
    compute_rmse,
    emit_csv,
    emit_plot_data,
    parse_csv,
    run_sweep,
)
from h2ad_doa.cli import cli_main
from h2ad_doa.fusion import GroupFailureError

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def tiny_spec(**kw):
    base = dict(cfg=BASE_CFG, theta0_deg=41.0, snr_grid=(10.0,), snapshot_grid=(64,),
                trials=6, methods=("crlb_ratio",), master_seed=3)
    base.update(kw)
    return BenchSpec(**base)


def test_compute_rmse_formula_and_sampling_oracle():
    assert compute_rmse([41.0, 43.0], 41.0) == pytest.approx(math.sqrt(2.0))
    draws = 41.0 + np.random.default_rng(0).normal(0.0, 0.5, size=5000)
    assert compute_rmse(draws, 41.0) == pytest.approx(0.5, abs=0.02)
    with pytest.raises(EmptyTrialSetError):
        compute_rmse([], 41.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(trials=0).validate()
    with pytest.raises(ValueError):
        tiny_spec(methods=("magic",)).validate()
    with pytest.raises(ValueError):
        tiny_spec(snr_grid=()).validate()
    with pytest.raises(ValueError):
        tiny_spec(methods=("mbdnn",)).validate()  # needs model_path


def test_run_sweep_row_grid():
    spec = tiny_spec(snr_grid=(0.0, 10.0), methods=("crlb_ratio", "exact_crlb"))
    rows = run_sweep(spec)
    assert [(r.snr_db, r.method) for r in rows] == [
        (0.0, "crlb_ratio"), (0.0, "exact_crlb"),
        (10.0, "crlb_ratio"), (10.0, "exact_crlb"),
    ]
    for r in rows:
        assert r.trials_used == 6 and r.failures == 0
        assert r.snapshots == 64 and r.K == 16
        assert r.wall_ms > 0
        assert math.isfinite(r.rmse_deg) and r.crlb_fused_deg > 0


def test_run_sweep_deterministic_modulo_wall():
    strip = lambda r: (r.method, r.snr_db, r.snapshots, r.K, r.rmse_deg,
                       r.crlb_fused_deg, r.trials_used, r.failures)
    a = [strip(r) for r in run_sweep(tiny_spec())]
    b = [strip(r) for r in run_sweep(tiny_spec())]
    assert a == b


def test_paired_seeding_across_methods(monkeypatch):
    seen = {"crlb_ratio": [], "exact_crlb": []}

    def recorder(scenario, method):
        seen[method].append(int(scenario.seed))
        return types.SimpleNamespace(theta_hat=scenario.theta0)

    monkeypatch.setattr("h2ad_doa.bench.estimate_doa", recorder)
    run_sweep(tiny_spec(snr_grid=(0.0, 5.0), methods=("crlb_ratio", "exact_crlb")))
    assert seen["crlb_ratio"] == seen["exact_crlb"]
    assert len(seen["crlb_ratio"]) == 12
    assert len(set(seen["crlb_ratio"])) == 12  # fresh seed per (cell, trial)


def test_failures_are_counted_not_imputed(monkeypatch):
    calls = {"n": 0}

    def flaky(scenario, method):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise GroupFailureError(0, RuntimeError("synthetic"))
        return types.SimpleNamespace(theta_hat=math.radians(41.5))

    monkeypatch.setattr("h2ad_doa.bench.estimate_doa", flaky)
    row = run_sweep(tiny_spec(trials=9))[0]
    assert row.failures == 3
    assert row.trials_used == 6
    assert row.rmse_deg == pytest.approx(0.5, abs=1e-9)


def test_all_failed_cell_reports_nan(monkeypatch):
    def dead(scenario, method):
        raise GroupFailureError(0, RuntimeError("synthetic"))

    monkeypatch.setattr("h2ad_doa.bench.estimate_doa", dead)
    row = run_sweep(tiny_spec())[0]
    assert row.trials_used == 0 and row.failures == 6
    assert math.isnan(row.rmse_deg)


def test_wall_ms_grows_with_subarray_count():
    # Rooting the degree-2(K-1) polynomial dominates a trial, so K=64
    # costs many times what K=16 does.
    rows = run_sweep(tiny_spec(k_grid=(16, 64), trials=4, snapshot_grid=(100,)))
    wall = {r.K: r.wall_ms for r in rows}
    assert wall[64] > wall[16]


def test_csv_header_and_round_trip(tmp_path):
    rows = run_sweep(tiny_spec(snr_grid=(0.0, 10.0)))
    path = tmp_path / "out.csv"
    text = emit_csv(rows, path)
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "method,snr_db,snapshots,K,rmse_deg,crlb_fused_deg,trials_used,failures,wall_ms"
    assert CSV_HEADER == lines[0]
    assert parse_csv(text) == rows


def test_csv_empty_rows_header_only():
    assert emit_csv([]) == CSV_HEADER + "\n"


def test_parse_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")


def test_csv_nan_rmse_round_trip():
    row = ResultRow(method="crlb_ratio", snr_db=0.0, snapshots=10, K=16,
                    rmse_deg=float("nan"), crlb_fused_deg=0.5,
                    trials_used=0, failures=6, wall_ms=1.0)
    back = parse_csv(emit_csv([row]))[0]
    assert math.isnan(back.rmse_deg)
    assert back.failures == 6


def test_emit_plot_data(tmp_path):
    rows = run_sweep(tiny_spec(snr_grid=(0.0, 10.0), methods=("crlb_ratio", "exact_crlb")))
    paths = emit_plot_data(rows, tmp_path / "plt", "snr_db")
    assert sorted(p.split(".")[-2] for p in paths) == ["crlb_ratio", "exact_crlb"]
    body = open(paths[0]).read().splitlines()
    assert body[0].startswith("#")
    assert len(body) == 3
    x, rmse, crlb = (float(v) for v in body[1].split())
    assert (x, rmse, crlb) == (rows[0].snr_db, rows[0].rmse_deg, rows[0].crlb_fused_deg)
    with pytest.raises(ValueError):
        emit_plot_data(rows, tmp_path / "plt", "theta0")


def test_mbdnn_method_in_sweep(tmp_path):
    model = mbdnn.init_model(mbdnn.MlpSpec.from_config(BASE_CFG), seed=1)
    path = tmp_path / "m.mbdnn"
    mbdnn.save_model(model, path)
    rows = run_sweep(tiny_spec(methods=("mbdnn",), model_path=str(path)))
    assert rows[0].trials_used == 6
    assert math.isfinite(rows[0].rmse_deg)


def test_mbdnn_model_load_error(tmp_path):
    bad = tmp_path / "nope.mbdnn"
    with pytest.raises(ModelLoadError):
        run_sweep(tiny_spec(methods=("mbdnn",), model_path=str(bad)))


# ---------------------------------------------------------------- CLI


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(BASE_CFG, path)
    return str(path)


def test_cli_validate_ok(cfg_file, capsys):
    assert cli_main(["validate", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "groups=3" in out and "496" in out


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"groups": 2, "M": [6, 9], "K": [4, 4]}))
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert "coprime" in capsys.readouterr().err


def test_cli_estimate_rejects_grating_lobe_spacing(tmp_path, capsys):
    # above half a wavelength a group's virtual array has more than M_q
    # candidates and the element array itself aliases the angle
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"groups": 3, "M": [7, 11, 13], "K": [16, 16, 16],
                                "d_over_lambda": 0.7}))
    assert cli_main(["estimate", "--config", str(path), "--theta0-deg", "41",
                     "--snr-db", "10", "--snapshots", "200", "--seed", "7"]) == 2
    assert "d_over_lambda" in capsys.readouterr().err


def test_cli_missing_config_is_exit_2(tmp_path):
    assert cli_main(["validate", "--config", str(tmp_path / "gone.json")]) == 2


def test_cli_unknown_subcommand_is_exit_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_runtime_failure_is_exit_3(cfg_file):
    # plug-in CRLB guard trips at wide angles
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", "89",
                   "--snr-db", "20", "--snapshots", "64"])
    assert rc == 3


def test_cli_estimate_json(cfg_file, capsys):
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", "41",
                   "--snr-db", "15", "--snapshots", "100", "--seed", "5", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["fused_deg_crlb_ratio"] - 41.0) < 0.1
    assert len(data["candidates_deg"]["0"]) == 7
    assert sum(data["weights_crlb_ratio"]) == pytest.approx(1.0)


def test_cli_simulate_writes_per_group_files(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "sim")
    rc = cli_main(["simulate", "--config", cfg_file, "--snapshots", "16",
                   "--out", out])
    assert rc == 0
    from h2ad_doa.signal_sim import read_snapshots

    for q in range(3):
        snap = read_snapshots(f"{out}.group{q}.snap")
        assert snap.data.shape == (16, 16)


def test_cli_dataset_train_predict_chain(cfg_file, tmp_path, capsys):
    ds = str(tmp_path / "ds.csv")
    model = str(tmp_path / "model.mbdnn")
    rc = cli_main(["dataset", "--config", cfg_file, "--theta-min", "30",
                   "--theta-max", "50", "--theta-step", "10", "--snr-min", "10",
                   "--snr-max", "10", "--snr-step", "5", "--trials", "2",
                   "--snapshots", "64", "--out", ds])
    assert rc == 0
    rc = cli_main(["train", "--config", cfg_file, "--dataset", ds, "--stage",
                   "all", "--epochs", "2", "--batch-size", "4", "--out", model])
    assert rc == 0
    rc = cli_main(["predict", "--config", cfg_file, "--model", model,
                   "--snapshots", "64", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert math.isfinite(data["theta_hat_deg"])


def test_cli_missing_model_is_exit_3(cfg_file, tmp_path):
    rc = cli_main(["predict", "--config", cfg_file,
                   "--model", str(tmp_path / "gone.bin")])
    assert rc == 3


def test_cli_bench_csv_and_plot_data(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    prefix = str(tmp_path / "plt")
    rc = cli_main(["bench", "--config", cfg_file, "--snr-grid", "0,10",
                   "--snapshot-grid", "64", "--trials", "3",
                   "--methods", "crlb_ratio", "--out", out,
                   "--emit-plot-data", prefix])
    assert rc == 0
    rows = parse_csv(open(out).read())
    assert len(rows) == 2
    assert open(f"{prefix}.crlb_ratio.dat").read().count("\n") == 3


def test_cli_bench_rejects_bad_method(cfg_file):
    assert cli_main(["bench", "--config", cfg_file, "--methods", "magic",
                     "--trials", "1"]) == 2
