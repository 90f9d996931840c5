import contextlib
import io
import json
import math
import re
import struct
import time
import types
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa import bench, cli, fusion, mbdnn
from h2ad_doa.array_model import ArrayConfig, ConfigError, save_config
from h2ad_doa.bench import (
    CSV_HEADER,
    METHODS,
    BenchSpec,
    EmptyTrialSetError,
    ResultRow,
    compute_rmse,
    emit_csv,
    emit_plot_data,
    parse_csv,
    run_sweep,
)
from h2ad_doa.cli import cli_main
from h2ad_doa.fusion import (
    GroupFailureError,
    candidates_from_covariances,
    estimate_doa,
    fuse_candidates,
    group_candidates,
)
from h2ad_doa.signal_sim import SimScenario, sample_covariance, simulate_groups

from mlp_oracles import foreign_dataset_files

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
README = Path(__file__).resolve().parents[1] / "README.md"


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
        tiny_spec(trials=0)
    with pytest.raises(ValueError):
        tiny_spec(methods=("magic",))
    with pytest.raises(ValueError):
        tiny_spec(snr_grid=())
    with pytest.raises(ValueError):
        tiny_spec(methods=("mbdnn",))  # needs model_path
    with pytest.raises(ConfigError, match="no methods"):
        tiny_spec(methods=())
    # grid points that no scenario can take are rejected before any trial
    with pytest.raises(ConfigError, match="snapshots"):
        tiny_spec(snapshot_grid=(0,))
    with pytest.raises(ConfigError, match="snr_db"):
        tiny_spec(snr_grid=(math.nan,))
    with pytest.raises(ConfigError, match="snr_db"):
        tiny_spec(snr_grid=(-math.inf,))
    with pytest.raises(ConfigError, match="subarray count"):
        tiny_spec(k_grid=(16, 1))
    with pytest.raises(ConfigError, match="master_seed"):
        tiny_spec(master_seed=-1)
    # a bool angle would sweep 1 degree, and a string raised TypeError
    for theta0_deg in (True, "41"):
        with pytest.raises(ConfigError, match="theta0_deg"):
            tiny_spec(theta0_deg=theta0_deg)


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
    seeds = []
    seen = {"crlb_ratio": [], "exact_crlb": []}
    front = bench.group_candidates

    def spy(scenario):
        seeds.append(int(scenario.seed))
        return front(scenario)

    def recorder(cfg, sets, method, snr_db=None, snapshots=None):
        seen[method].append((sets, snr_db, snapshots))
        return types.SimpleNamespace(theta_hat=math.radians(41.0))

    monkeypatch.setattr("h2ad_doa.bench.group_candidates", spy)
    monkeypatch.setattr("h2ad_doa.bench.fuse_candidates", recorder)
    run_sweep(tiny_spec(snr_grid=(0.0, 5.0), methods=("crlb_ratio", "exact_crlb")))
    assert len(seen["crlb_ratio"]) == len(seen["exact_crlb"]) == 12
    # each trial hands both methods the same candidate sets, at its cell's
    # operating point
    for ratio, exact in zip(seen["crlb_ratio"], seen["exact_crlb"]):
        assert ratio[0] is exact[0]
    assert [point for _, *point in seen["exact_crlb"]] == [[0.0, 64]] * 6 + [[5.0, 64]] * 6
    assert len(seeds) == 12
    assert len(set(seeds)) == 12  # fresh seed per (cell, trial)


def test_failures_are_counted_not_imputed(monkeypatch):
    calls = {"n": 0}

    def flaky(cfg, sets, method, snr_db=None, snapshots=None):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise GroupFailureError(0, RuntimeError("synthetic"))
        return types.SimpleNamespace(theta_hat=math.radians(41.5))

    monkeypatch.setattr("h2ad_doa.bench.fuse_candidates", flaky)
    row = run_sweep(tiny_spec(trials=9))[0]
    assert row.failures == 3
    assert row.trials_used == 6
    assert row.rmse_deg == pytest.approx(0.5, abs=1e-9)


def test_all_failed_cell_reports_nan(monkeypatch):
    def dead(cfg, sets, method, snr_db=None, snapshots=None):
        raise GroupFailureError(0, RuntimeError("synthetic"))

    monkeypatch.setattr("h2ad_doa.bench.fuse_candidates", dead)
    row = run_sweep(tiny_spec())[0]
    assert row.trials_used == 0 and row.failures == 6
    assert math.isnan(row.rmse_deg)


def test_sweep_runs_front_end_once_per_trial(monkeypatch):
    # every front-end pass simulates the trial's groups once
    seeds = []
    real = fusion.simulate_groups
    monkeypatch.setattr(fusion, "simulate_groups",
                        lambda sc, **kw: seeds.append(sc.seed) or real(sc, **kw))
    spec = tiny_spec(snr_grid=(0.0, 10.0), methods=("crlb_ratio", "exact_crlb"))
    rows = run_sweep(spec)
    assert len(seeds) == 2 * spec.trials  # cells x trials, not x methods
    assert len(set(seeds)) == len(seeds)
    assert all(r.trials_used == spec.trials for r in rows)


def test_front_end_failure_fails_the_trial_for_every_method(monkeypatch, tmp_path):
    model = mbdnn.init_model(mbdnn.MlpSpec.from_config(BASE_CFG), seed=1)
    path = tmp_path / "m.mbdnn"
    mbdnn.save_model(model, path)
    calls = {"n": 0}
    real = bench.group_candidates

    def flaky(sc):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise GroupFailureError(1, RuntimeError("synthetic"))
        return real(sc)

    monkeypatch.setattr("h2ad_doa.bench.group_candidates", flaky)
    rows = run_sweep(tiny_spec(trials=9, methods=bench.METHODS, model_path=str(path)))
    assert [(r.method, r.trials_used, r.failures) for r in rows] == [
        (m, 6, 3) for m in bench.METHODS
    ]


def test_wall_ms_counts_the_shared_front_end_in_every_row(monkeypatch):
    real = bench.group_candidates

    def slow(sc):
        time.sleep(0.01)
        return real(sc)

    monkeypatch.setattr("h2ad_doa.bench.group_candidates", slow)
    rows = run_sweep(tiny_spec(trials=3, methods=("crlb_ratio", "exact_crlb")))
    assert all(r.wall_ms >= 30.0 for r in rows)


def test_wall_ms_grows_with_subarray_count():
    # Warmed, a K=64 sweep takes only about 1.5 times a K=16 one (2 vCPU,
    # numpy 2.4), and on a shared host 3 single sweeps in 1000 read at or
    # below 1.  A neighbour's burst can only slow a run, so compare each K's
    # fastest of five sweeps: its ratio never fell below 1.17 in 200 tries.
    spec = tiny_spec(k_grid=(16, 64), trials=4, snapshot_grid=(100,))
    run_sweep(spec)  # untimed: the first sweep in a process pays first-use costs
    wall = {16: math.inf, 64: math.inf}
    for _ in range(5):
        for r in run_sweep(spec):
            wall[r.K] = min(wall[r.K], r.wall_ms)
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


_FLOATS = st.floats(allow_nan=False) | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_ROWS = st.builds(ResultRow, method=st.sampled_from(METHODS), snr_db=_FLOATS,
                  snapshots=st.integers(), K=st.integers(), rmse_deg=_FLOATS,
                  crlb_fused_deg=_FLOATS, trials_used=st.integers(),
                  failures=st.integers(), wall_ms=_FLOATS)


def _bits(row):
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in astuple(row))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROWS, max_size=4))
def test_csv_schema_round_trip(rows):
    text = emit_csv(rows)
    back = parse_csv(text)
    assert [_bits(r) for r in back] == [_bits(r) for r in rows]
    assert emit_csv(back) == text


def test_parse_csv_rejects_malformed_records():
    rows = [ResultRow(method="crlb_ratio", snr_db=0.0, snapshots=10, K=16,
                      rmse_deg=0.25, crlb_fused_deg=0.5, trials_used=6,
                      failures=0, wall_ms=18.411)] * 2
    text = emit_csv(rows)
    header, record, _ = text.splitlines()
    short = record.rsplit(",", 1)[0]
    for bad in (short, record + ",1.0"):
        with pytest.raises(ValueError, match="fields"):
            parse_csv(f"{header}\n{bad}\n")
    assert text.endswith(",18.411\n")
    with pytest.raises(ValueError, match="cut off"):
        parse_csv(text[:-4])  # "...,18." would read wall_ms as 18.0
    # every cut either is refused or parses to a prefix of the rows
    for n in range(len(text)):
        try:
            back = parse_csv(text[:n])
        except ValueError:
            continue
        assert back == rows[: text[:n].count("\n") - 1]


def test_parse_csv_skips_blank_lines():
    rows = [ResultRow(method=m, snr_db=0.0, snapshots=10, K=16, rmse_deg=0.25,
                      crlb_fused_deg=0.5, trials_used=6, failures=0, wall_ms=18.4)
            for m in ("crlb_ratio", "exact_crlb")]
    header, first, second = emit_csv(rows).splitlines()
    assert parse_csv(f"{header}\n{first}\n\n{second}\n") == rows


def test_emit_plot_data(tmp_path):
    rows = run_sweep(tiny_spec(snr_grid=(0.0, 10.0), methods=("crlb_ratio", "exact_crlb")))
    paths = emit_plot_data(rows, tmp_path / "plt")
    assert sorted(p.split(".")[-2] for p in paths) == ["crlb_ratio", "exact_crlb"]
    body = open(paths[0]).read().splitlines()
    assert body[0] == "# snr_db rmse_deg crlb_fused_deg"
    assert len(body) == 3
    x, rmse, crlb = (float(v) for v in body[1].split())
    assert (x, rmse, crlb) == (rows[0].snr_db, rows[0].rmse_deg, rows[0].crlb_fused_deg)
    # the axis is the grid the rows vary over; a repeated value is no sweep
    for grid, axis in [(dict(snapshot_grid=(32, 64)), "snapshots"),
                       (dict(k_grid=(8, 16)), "K"),
                       (dict(snr_grid=(0.0, 10.0)), "snr_db"),
                       (dict(snapshot_grid=(100, 100)), "snr_db")]:
        rows = run_sweep(tiny_spec(trials=2, **grid))
        (path,) = emit_plot_data(rows, tmp_path / axis)
        body = open(path).read().splitlines()
        assert body[0] == f"# {axis} rmse_deg crlb_fused_deg"
        assert [line.split()[0] for line in body[1:]] == [
            str(getattr(r, axis)) for r in rows]
    # a second swept grid splits the file into one block per value, so a
    # plot draws one curve per SNR instead of a zigzag through both
    rows = run_sweep(tiny_spec(trials=2, snapshot_grid=(32, 64), snr_grid=(10.0, 0.0)))
    (path,) = emit_plot_data(rows, tmp_path / "two")
    blocks = [block.splitlines() for block in open(path).read().split("\n\n\n")]
    assert [[line for line in b if line.startswith("#")] for b in blocks] == [
        ["# snapshots rmse_deg crlb_fused_deg", "# snr_db=10.0"], ["# snr_db=0.0"]]
    for block, snr in zip(blocks, (10.0, 0.0)):
        data = [line.split() for line in block if not line.startswith("#")]
        assert [d[0] for d in data] == ["32", "64"]
        assert [float(d[1]) for d in data] == [r.rmse_deg for r in rows if r.snr_db == snr]


def test_mbdnn_method_in_sweep(tmp_path):
    model = mbdnn.init_model(mbdnn.MlpSpec.from_config(BASE_CFG), seed=1)
    path = tmp_path / "m.mbdnn"
    mbdnn.save_model(model, path)
    rows = run_sweep(tiny_spec(methods=("mbdnn",), model_path=str(path)))
    assert rows[0].trials_used == 6
    assert math.isfinite(rows[0].rmse_deg)


def test_mbdnn_model_load_error(tmp_path):
    # the loader's own exception reaches the caller (the CLI maps both to 3)
    missing = tmp_path / "nope.mbdnn"
    with pytest.raises(FileNotFoundError):
        run_sweep(tiny_spec(methods=("mbdnn",), model_path=str(missing)))
    bad = tmp_path / "bad.mbdnn"
    bad.write_bytes(b"NOTMB1" + bytes(64))
    with pytest.raises(mbdnn.ModelFormatError, match="bad magic"):
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


@pytest.mark.parametrize("document, shown", [
    ([3, [7, 11, 13], [16, 16, 16]], "must be a JSON object"),
    ({"groups": 3, "M": [7, 11, 13]}, "missing required key 'K'"),
], ids=["json-array", "missing-K"])
def test_cli_malformed_config_document_is_exit_2(tmp_path, capsys, document, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert cli_main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and shown in err


@pytest.mark.parametrize("field, value, shown", [
    ("groups", None, "null"),
    ("groups", "abc", '"abc"'),
    ("groups", 3.7, "3.7"),
    ("groups", True, "true"),
    ("M", [7.5, 11, 13], "7.5"),
    ("M", [True, 11, 13], "true"),
    ("M", ["7", 11, 13], '"7"'),
    ("M", "7", '"7"'),
    ("K", [16.9, 16, 16], "16.9"),
    ("K", [None, 16, 16], "null"),
    ("M", [10**30 + 1, 11, 13], str(10**30 + 1)),
    ("K", [10**6, 16, 16], "1000000"),
    ("lambda_m", 1.0, "unknown config keys ['lambda_m']"),
    ("d_over_lambda", 0.5, "unknown config keys ['d_over_lambda']"),
], ids=["groups-null", "groups-str", "groups-fraction", "groups-bool", "M-fraction",
        "M-bool", "M-str-member", "M-str", "K-fraction", "K-null-member",
        "M-huge", "K-huge", "lambda-key", "spacing-key"])
def test_cli_bad_config_value_is_exit_2(tmp_path, capsys, field, value, shown):
    # Each value is refused as read, naming its key and showing it as
    # written; int() and float() would truncate fractions, turn true into
    # 1, parse numeric strings and fail on null with a TypeError.  A
    # subarray size or count above its limit is refused before any trial.
    # Lengths are in wavelengths and elements sit half a wavelength apart,
    # so a wavelength or spacing key is unknown, not ignored.
    raw = {"groups": 3, "M": [7, 11, 13], "K": [16, 16, 16], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and shown in err


@pytest.mark.parametrize("command, target, message", [
    ("estimate", "h2ad_doa.cli.group_candidates", "Unable to allocate 7.28 TiB"),
    ("simulate", "h2ad_doa.cli.simulate_groups", ""),
    ("dataset", "h2ad_doa.mbdnn.generate_dataset", ""),
], ids=["estimate", "simulate", "dataset"])
def test_cli_memory_error_is_exit_3(cfg_file, tmp_path, capsys, monkeypatch,
                                    command, target, message):
    # a request too large for memory is a runtime failure, not a traceback;
    # the allocation is faked, since a real one could succeed under overcommit
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, exhausted)
    args = [a.format(out=tmp_path / "out") for a in _EXIT_BASE[command]]
    assert cli_main([command, "--config", cfg_file, *args]) == 3
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


def test_cli_estimate_rejects_grating_lobe_spacing(tmp_path, capsys):
    # above half a wavelength a group's virtual array has more than M_q
    # candidates and the element array itself aliases the angle; the
    # spacing is fixed at half a wavelength, so the key is refused
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


def test_cli_runtime_failure_is_exit_3(cfg_file, capsys, monkeypatch):
    # a group whose front end fails aborts the estimate
    def failing(scenario):
        raise GroupFailureError(1, ValueError("degenerate noise subspace"))

    monkeypatch.setattr(cli, "group_candidates", failing)
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", "41",
                   "--snr-db", "20", "--snapshots", "64"])
    assert rc == 3
    assert capsys.readouterr().err == "error: group 1 failed: degenerate noise subspace\n"


@pytest.mark.parametrize("theta0_deg, snr_db", [("75", "10"), ("89", "20"), ("75", "inf")])
def test_cli_estimate_beyond_crlb_guard(cfg_file, capsys, theta0_deg, snr_db):
    # past the exact-CRLB guard the bound and its weights are undefined:
    # the crlb_ratio answer is printed and the exact fields read null, as
    # the bench's bound column reads NaN there
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", theta0_deg,
                   "--snr-db", snr_db, "--snapshots", "64", "--seed", "3", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["fused_deg_crlb_ratio"] - float(theta0_deg)) < 0.5
    for key in ("weights_exact_crlb", "fused_deg_exact_crlb", "crlb_per_group_rad2",
                "crlb_fused_rad2"):
        assert data[key] is None


def test_cli_estimate_json(cfg_file, capsys):
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", "41",
                   "--snr-db", "15", "--snapshots", "100", "--seed", "5", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["fused_deg_crlb_ratio"] - 41.0) < 0.1
    assert len(data["candidates_deg"]["0"]) == 7
    assert sum(data["weights_crlb_ratio"]) == pytest.approx(1.0)
    # noiseless: the bounds are zero and inverse-bound weights undefined
    rc = cli_main(["estimate", "--config", cfg_file, "--theta0-deg", "41",
                   "--snr-db", "inf", "--snapshots", "100", "--seed", "5", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["fused_deg_crlb_ratio"] - 41.0) < 1e-6
    assert data["crlb_per_group_rad2"] == [0.0, 0.0, 0.0] and data["crlb_fused_rad2"] == 0.0
    assert data["weights_exact_crlb"] is None and data["fused_deg_exact_crlb"] is None


def test_cli_simulate_writes_per_group_files(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "sim")
    rc = cli_main(["simulate", "--config", cfg_file, "--snapshots", "16",
                   "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    blocks = simulate_groups(SimScenario(BASE_CFG, math.radians(41.0), 0.0, 16))
    assert printed == [f"wrote {out}.group{q}.npy (16x16)" for q in range(3)]
    for q, block in enumerate(blocks):
        data = np.load(f"{out}.group{q}.npy")
        assert data.dtype == np.complex128 and data.shape == (16, 16)
        assert data.tobytes() == block.tobytes()


def _outcome(fn):
    """A back end's estimate as bytes, or its exception as (type, message)."""
    try:
        est = fn()
    except Exception as err:  # compared between the two paths
        return type(err), str(err)
    return (np.float64(est.theta_hat).tobytes(), est.weights.tobytes(),
            est.selected.angles.tobytes(), est.crlb)


@pytest.mark.parametrize("snr_db", [-5.0, 10.0, math.inf])
def test_simulated_files_estimate_like_the_scenario(tmp_path, snr_db):
    # recorded blocks reach the estimator through the API: np.load,
    # sample_covariance, candidates_from_covariances, then
    # the one back end; K_q = 20 takes the certified rooting path
    cfg = ArrayConfig(M=(7, 11, 13), K=(8, 20, 12))
    save_config(cfg, tmp_path / "cfg.json")
    out = str(tmp_path / "sim")
    assert cli_main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     f"--snr-db={snr_db}", "--seed", "4", "--out", out]) == 0
    covs = [sample_covariance(np.load(f"{out}.group{q}.npy")) for q in range(3)]
    sets = candidates_from_covariances(cfg, covs)
    scenario = SimScenario(cfg, math.radians(41.0), snr_db, 200, seed=4)
    reference = group_candidates(scenario)
    assert len(sets) == len(reference)
    for got, ref in zip(sets, reference):
        assert np.float64(got.phase_hat).tobytes() == np.float64(ref.phase_hat).tobytes()
        assert got.angles.tobytes() == ref.angles.tobytes()
    # crlb_ratio from the config alone, exact_crlb given the scenario's SNR
    # and T (noiseless, both refuse the zero bound alike)
    ratio = _outcome(lambda: fuse_candidates(cfg, sets))
    assert ratio == _outcome(lambda: estimate_doa(scenario, "crlb_ratio"))
    assert isinstance(ratio[0], bytes)
    exact = _outcome(lambda: fuse_candidates(cfg, sets, "exact_crlb", snr_db, 200))
    assert exact == _outcome(lambda: estimate_doa(scenario, "exact_crlb"))
    assert isinstance(exact[0], bytes) == math.isfinite(snr_db)
    with pytest.raises(ConfigError, match="snr_db"):
        fuse_candidates(cfg, sets, "exact_crlb", snapshots=200)
    with pytest.raises(ConfigError):
        fuse_candidates(cfg, sets, "exact_crlb")


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_recorded_data_example_runs_as_written(tmp_path, monkeypatch):
    # the README's recorded-data block, run on the files of its own
    # `simulate` line with its own config, is estimate_doa bit for bit
    (example,) = [b for b in _readme_blocks("python") if "np.load" in b]
    (config,) = _readme_blocks("json")
    (command,) = [line.split()[1:] for block in _readme_blocks("sh")
                  for line in block.replace("\\\n", " ").splitlines()
                  if line.startswith("h2ad-doa simulate")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arrays.json").write_text(config)
    (tmp_path / "snaps").mkdir()
    assert cli_main(command) == 0
    namespace = {}
    exec(example, namespace)
    scenario = cli._scenario(cli.build_parser().parse_args(command))
    expected = estimate_doa(scenario, "crlb_ratio").theta_hat
    assert np.float64(namespace["theta_hat"]).tobytes() == np.float64(expected).tobytes()


def test_cli_dataset_train_predict_chain(cfg_file, tmp_path, capsys):
    ds = str(tmp_path / "ds")
    model = str(tmp_path / "model.mbdnn")
    rc = cli_main(["dataset", "--config", cfg_file, "--theta-min", "30",
                   "--theta-max", "50", "--theta-step", "10", "--snr-min", "10",
                   "--snr-max", "10", "--snr-step", "5", "--trials", "2",
                   "--snapshots", "64", "--out", ds])
    assert rc == 0
    # the archive is written at --out itself, with no suffix appended
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ds"]
    rc = cli_main(["train", "--config", cfg_file, "--dataset", ds, "--stage",
                   "all", "--epochs", "2", "--batch-size", "4", "--out", model])
    assert rc == 0
    # "all" is mb_fcnn then fusion_net; the joint fine-tune runs only on request
    losses = mbdnn.load_model(model).stage_losses
    assert math.isfinite(losses["mb_fcnn"]) and math.isfinite(losses["fusion_net"])
    assert math.isnan(losses["joint"])
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


def test_cli_bench_beyond_crlb_guard(cfg_file, tmp_path):
    # 75 degrees lies past the exact-CRLB guard: the informational bound
    # column reads NaN, and a crlb_ratio sweep still runs its trials
    out = str(tmp_path / "bench.csv")
    assert cli_main(["bench", "--config", cfg_file, "--theta0-deg", "75",
                     "--snr-grid", "10", "--trials", "3", "--out", out]) == 0
    text = open(out).read()
    (row,) = parse_csv(text)
    assert row.method == "crlb_ratio" and row.trials_used == 3
    assert math.isfinite(row.rmse_deg)
    assert math.isnan(row.crlb_fused_deg)
    assert emit_csv(parse_csv(text)) == text


@pytest.mark.parametrize("flag, text, clean", [
    ("--snr-grid", "10,", "10"),
    ("--methods", "crlb_ratio,", "crlb_ratio"),
    ("--methods", " crlb_ratio , exact_crlb ,,", "crlb_ratio,exact_crlb"),
], ids=["snr-grid-trailing-comma", "methods-trailing-comma", "methods-blanks"])
def test_cli_bench_comma_lists_skip_blank_entries(cfg_file, capsys, flag, text, clean):
    # every comma list reads one way: entries are trimmed and blank ones skipped
    def sweep(value):
        assert cli_main(["bench", "--config", cfg_file, "--snr-grid", "10",
                         "--snapshot-grid", "32", "--trials", "2", flag, value]) == 0
        return [replace(r, wall_ms=0.0) for r in parse_csv(capsys.readouterr().out)]

    assert sweep(text) == sweep(clean)


def test_cli_bench_rejects_bad_method(cfg_file):
    assert cli_main(["bench", "--config", cfg_file, "--methods", "magic",
                     "--trials", "1"]) == 2


_ONE_CELL = ["--snr-min", "10", "--snr-max", "10", "--trials", "1"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["bench", "--snapshot-grid", "0", "--trials", "1"], "snapshots"),
        (["bench", "--snr-grid=-inf", "--trials", "1"], "snr_db"),
        (["bench", "--snr-grid", "nan,10", "--trials", "1"], "snr_db"),
        (["dataset", "--theta-min", "-90", "--theta-max", "90",
          "--theta-step", "90", *_ONE_CELL], "theta0"),
        (["dataset", "--snapshots", "0", "--theta-step", "30", *_ONE_CELL],
         "snapshots"),
        (["estimate", "--snapshots", "0"], "snapshots"),
        (["estimate", "--theta0-deg", "95"], "theta0"),
        (["bench", "--snr-grid", "1,x", "--trials", "1"], "bad grid '1,x'"),
    ],
    ids=["bench-T0", "bench-snr-neginf", "bench-snr-nan", "dataset-endfire",
         "dataset-T0", "estimate-T0", "estimate-theta95", "bench-snr-grid-text"],
)
def test_cli_invalid_scenario_is_exit_2(cfg_file, tmp_path, capsys, argv, field):
    # rejected at construction: exit 2 naming the field, and no output file
    out = str(tmp_path / "out")
    output = [] if argv[0] == "estimate" else ["--out", out]
    assert cli_main([argv[0], "--config", cfg_file, *argv[1:], *output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("saved_for", [(5, 7, 11), (11, 7, 13)],
                         ids=["other-sizes", "same-sizes-reordered"])
@pytest.mark.parametrize("command", ["predict", "train", "bench"])
def test_cli_refuses_model_for_other_subarray_sizes(cfg_file, tmp_path, capsys,
                                                    monkeypatch, command, saved_for):
    # a model saved for other sizes exits 2 before any trial; one with the
    # same feature length would otherwise read the wrong groups' candidates
    model = str(tmp_path / "m.mbdnn")
    mbdnn.save_model(mbdnn.init_model(mbdnn.MlpSpec(M=saved_for), seed=1), model)
    ds = tmp_path / "ds.npz"
    mbdnn.generate_dataset(BASE_CFG, [40.0], [10.0], 1, snapshots=32).save(ds)
    passes = []
    simulate = fusion.simulate_groups
    monkeypatch.setattr(fusion, "simulate_groups",
                        lambda sc, **kw: passes.append(sc) or simulate(sc, **kw))
    out = tmp_path / "out"
    argv = {
        "predict": ["--model", model, "--snapshots", "32"],
        "train": ["--dataset", str(ds), "--model-in", model, "--epochs", "1",
                  "--out", str(out)],
        "bench": ["--methods", "mbdnn", "--model", model, "--snr-grid", "10",
                  "--snapshot-grid", "32", "--trials", "2", "--out", str(out)],
    }[command]
    assert cli_main([command, "--config", cfg_file, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"M={saved_for}" in err and f"M={BASE_CFG.M}" in err
    assert not passes and not out.exists()


# The exit-code contract, one row per numeric flag on a small valid command,
# at 0 and -1 and, for the float flags, at nan, inf, -inf and 4000: 0 on
# success, 2 for input refused before any trial, 3 for a runtime failure.
# An exception escaping cli_main is the console script's exit 1 with a
# traceback, and fails the test.
_EXIT_BASE = {
    "estimate": ["--snapshots", "32"],
    "simulate": ["--snapshots", "8", "--out", "{out}"],
    "predict": ["--model", "{model}", "--snapshots", "32"],
    "dataset": ["--theta-min", "30", "--theta-max", "50", "--theta-step", "10",
                "--snr-min", "10", "--snr-max", "10", "--snr-step", "5",
                "--trials", "1", "--snapshots", "32", "--out", "{out}"],
    "train": ["--dataset", "{dataset}", "--stage", "all", "--epochs", "1",
              "--batch-size", "4", "--out", "{out}"],
    "bench": ["--snr-grid", "10", "--snapshot-grid", "32", "--trials", "1"],
}
_EXIT_VALUES = (0, -1, "nan", "inf", "-inf", 4000)


def _scenario_rows(command, noiseless):
    # noiseless: the exit code at --snr-db=inf
    return [(command, "--theta0-deg", 0, 0, 2, 2, 2, 2),
            (command, "--snr-db", 0, 0, 2, noiseless, 2, 2),
            (command, "--snapshots", 2, 2),
            (command, "--seed", 0, 2)]


_EXIT_TABLE = [  # (command, flag, exit code at each of _EXIT_VALUES in turn)
    *_scenario_rows("estimate", 0),
    *_scenario_rows("simulate", 0),
    *_scenario_rows("predict", 0),
    ("dataset", "--theta-min", 0, 0, 2, 2, 2, 2),  # 4000: an empty grid
    ("dataset", "--theta-max", 2, 2, 2, 2, 2, 2),  # below --theta-min: an empty grid
    ("dataset", "--theta-step", 2, 2, 2, 0, 2, 0),  # inf, 4000: one angle
    ("dataset", "--snr-min", 0, 0, 2, 2, 2, 2),
    ("dataset", "--snr-max", 2, 2, 2, 2, 2, 2),
    ("dataset", "--snr-step", 2, 2, 2, 0, 2, 0),
    ("dataset", "--trials", 2, 2),
    ("dataset", "--snapshots", 2, 2),
    ("dataset", "--seed", 0, 2),
    ("train", "--epochs", 2, 2),
    ("train", "--batch-size", 2, 2),
    ("train", "--lr", 0, 2, 2, 2, 2, 0),
    ("train", "--seed", 0, 2),
    ("bench", "--theta0-deg", 0, 0, 2, 2, 2, 2),
    ("bench", "--snr-grid", 0, 0, 2, 0, 2, 2),
    ("bench", "--snapshot-grid", 2, 2),
    ("bench", "--k-grid", 2, 2),
    ("bench", "--trials", 2, 2),
    ("bench", "--seed", 0, 2),
]


@pytest.fixture(scope="module")
def exit_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit")
    save_config(BASE_CFG, root / "cfg.json")
    mbdnn.generate_dataset(BASE_CFG, [30.0, 40.0, 50.0], [10.0], 2,
                           snapshots=32).save(root / "ds.npz")
    model = mbdnn.init_model(mbdnn.MlpSpec.from_config(BASE_CFG), seed=1)
    mbdnn.save_model(model, root / "m.mbdnn")
    return {"config": str(root / "cfg.json"), "dataset": str(root / "ds.npz"),
            "model": str(root / "m.mbdnn")}


_EXIT_ROWS = [(c, f, v, code) for c, f, *codes in _EXIT_TABLE
              for v, code in zip(_EXIT_VALUES, codes)]


@pytest.mark.parametrize("command, flag, value, code", _EXIT_ROWS,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in _EXIT_ROWS])
def test_cli_numeric_flag_exit_codes(exit_files, tmp_path, capsys, command, flag, value,
                                     code):
    fill = {**exit_files, "out": str(tmp_path / "out")}
    base = [arg.format(**fill) for arg in _EXIT_BASE[command]]
    argv = [command, "--config", exit_files["config"], *base, f"{flag}={value}"]
    assert cli_main(argv) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("config error:")
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed, code", [(2**63 - 1, 0), (2**63, 2)])
def test_cli_train_seed_fits_the_model_file(exit_files, tmp_path, capsys, seed, code):
    # a model file keeps its seed in a signed 64-bit field: 2**63 is refused
    # before any training, 2**63 - 1 trains, saves and loads
    fill = {**exit_files, "out": str(tmp_path / "m.mbdnn")}
    base = [arg.format(**fill) for arg in _EXIT_BASE["train"]]
    argv = ["train", "--config", exit_files["config"], *base, "--seed", str(seed)]
    assert cli_main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("config error:") and "seed=" in err
        assert "stage" not in out and not any(tmp_path.iterdir())
    else:
        assert mbdnn.load_model(tmp_path / "m.mbdnn").seed == seed


# A cut-off input file exits with the code and message prefix of its
# kind: 2 for a config, 3 for a model or a dataset.
# Cuts that leave a loadable file are not drawn: a config that lost only
# its final newline.
_CUT_FILES = {"validate": ("config", 2), "predict": ("model", 3), "train": ("dataset", 3)}


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(sorted(_CUT_FILES)), data=st.data())
def test_cli_cut_file_exit_codes(exit_files, tmp_path_factory, command, data):
    kind, code = _CUT_FILES[command]
    blob = open(exit_files[kind], "rb").read()
    removed = data.draw(st.integers(1, len(blob)).filter(
        lambda r: not (kind == "config" and r == 1)))
    root = tmp_path_factory.mktemp("cut")
    files = {**exit_files, kind: str(root / kind)}
    (root / kind).write_bytes(blob[:-removed])
    out = root / "out"
    argv = {
        "validate": [],
        "predict": ["--model", files["model"], "--snapshots", "32"],
        "train": ["--dataset", files["dataset"], "--epochs", "1", "--out", str(out)],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli_main([command, "--config", files["config"], *argv]) == code
    assert err.getvalue().startswith("config error:" if code == 2 else "error:")
    assert not out.exists()


def test_cli_train_refuses_foreign_dataset(exit_files, tmp_path, capsys):
    # each file the dataset loader refuses exits 3 with the loader's message
    out = tmp_path / "out"
    foreign = foreign_dataset_files(mbdnn.Dataset.load(exit_files["dataset"]))
    for name, blob in foreign.items():
        path = tmp_path / name
        path.write_bytes(blob)
        assert cli_main(["train", "--config", exit_files["config"], "--dataset", str(path),
                         "--epochs", "1", "--out", str(out)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:"), (name, err)
    assert not out.exists()
