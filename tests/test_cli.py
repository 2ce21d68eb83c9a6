import json
import math
import os

import numpy as np
import pytest

from kgorbit import (ParseError, ValidationError, build_spectrum, parse_config, run,
                     serialize_config)
from kgorbit.cli import _initial_state, _write_csv, main
from kgorbit.stationary import floquet, sample_orbit

MINIMAL = """\
[model]
m = 0.5
p = 1
dim = 1
cutoff = 4

[stepper]
dt = 1e-3
scheme = split2
max_time = 2.0
sample_stride = 100

[experiment]
kind = simulate
eta = 0.1

[output]
formats = csv,json
"""

# sets every key of the schema, in normalized form
EVERY_KEY = """\
[model]
m = 0.5
p = 1
dim = 2
cutoff = 3
periods = 2.0,0.5

[stepper]
dt = 0.0005
scheme = rk4
max_time = 40.0
sample_stride = 25

[experiment]
kind = first-return
eta = 0.05
eta_list = 0.1,0.02
amplitude = 1.25e-05
modes = 1,2,5
distribution = random_direction
seed = 7
seeds = 3,4
loop_budget = 4
loop_rate = 1.5
delta = 0.2
lambdas = 6.5,12.25
rebaseline = false
dist_coefficient = 0.25
drift_tol = 1e-09

[output]
directory = out/full
formats = json,csv
"""


class TestParse:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.m == 0.5
        assert cfg.model.periods == (1.0,)
        assert cfg.stepper.dt == 1e-3
        assert cfg.experiment.kind == "simulate"
        assert cfg.formats == ("csv", "json")

    def test_round_trip_idempotent(self):
        cfg1 = parse_config(MINIMAL)
        text1 = serialize_config(cfg1)
        cfg2 = parse_config(text1)
        assert serialize_config(cfg2) == text1

    def test_round_trip_full_experiment(self):
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = stability\neta = 0.05\nloop_budget = 3\nseed = 7\n"
            "distribution = random_direction\nmodes = 1,2,3\namplitude = 1.25e-4\n"
            "delta = 0.2\nrebaseline = false\ndist_coefficient = 0.25")
        cfg1 = parse_config(text)
        text1 = serialize_config(cfg1)
        cfg2 = parse_config(text1)
        assert cfg2 == cfg1
        assert serialize_config(cfg2) == text1

    def test_serialize_every_key(self):
        cfg = parse_config(EVERY_KEY)
        assert serialize_config(cfg) == EVERY_KEY
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_names_line_and_key(self):
        bad = MINIMAL.replace("dt = 1e-3", "dt = 1e-3\nfoo = 1")
        with pytest.raises(ParseError) as err:
            parse_config(bad)
        assert err.value.key == "foo"
        assert err.value.line == 9

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + "\n[plotting]\nstyle = fancy\n")

    def test_key_before_section(self):
        with pytest.raises(ParseError):
            parse_config("m = 0.5\n" + MINIMAL)

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL.replace("dt = 1e-3", "dt = 1e-3\ndt = 1e-2"))

    def test_bad_number(self):
        with pytest.raises(ParseError) as err:
            parse_config(MINIMAL.replace("m = 0.5", "m = half"))
        assert err.value.key == "m"

    @pytest.mark.parametrize("old,new,line,key", [
        ("cutoff = 4", "cutoff = 1e400", 5, "cutoff"),
        ("eta = 0.1", "eta = 0.1\nmodes = 1,1e400", 16, "modes"),
    ], ids=["int", "int_list"])
    def test_overflowing_integer(self, old, new, line, key):
        with pytest.raises(ParseError) as err:
            parse_config(MINIMAL.replace(old, new))
        assert (err.value.line, err.value.key) == (line, key)

    def test_infinite_floquet_lambda(self):
        with pytest.raises(ValidationError, match="must be finite, got inf"):
            parse_config(MINIMAL.replace(
                "kind = simulate\neta = 0.1",
                "kind = floquet\neta_list = 0.1\nlambdas = 6.5,inf"))

    def test_mass_gate_surfaces_constraint(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("m = 0.5", "m = 7"))
        assert "lambda_1" in str(err.value)

    def test_missing_seed_for_random(self):
        bad = MINIMAL.replace("kind = simulate",
                              "kind = simulate\ndistribution = random_direction")
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "seed" in str(err.value)

    def test_eta_range_checked(self):
        for eta in ("0.7", "0", "-0.1"):
            with pytest.raises(ValidationError, match="must lie in"):
                parse_config(MINIMAL.replace("eta = 0.1", f"eta = {eta}"))

    def test_delta_range_checked(self):
        text = MINIMAL.replace("kind = simulate", "kind = first-return\ndelta = 0.7")
        with pytest.raises(ValidationError, match="must lie in"):
            parse_config(text)

    def test_default_modes_on_2d_torus(self):
        # a 2D K = 2 torus has 25 modes: the default set is 1..8, as in 1D
        text = MINIMAL.replace("dim = 1\ncutoff = 4", "dim = 2\ncutoff = 2").replace(
            "kind = simulate", "kind = first-return")
        cfg = parse_config(text)
        table = build_spectrum(cfg.model)
        s0 = _initial_state(cfg, table, 0.1)
        assert table.mode_count == 25
        assert np.flatnonzero(s0.b).tolist() == list(range(1, 9))

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n" + MINIMAL
        assert parse_config(text).model.m == 0.5


class TestRun:
    def test_simulate_outputs(self, tmp_path):
        cfg = parse_config(MINIMAL)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        csv_path = tmp_path / "simulate.csv"
        json_path = tmp_path / "simulate.json"
        assert csv_path.exists() and json_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,a0,b0,H,J,I,r"
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert "H_drift" in payload and "max_J" in payload
        assert payload["max_J"] == 0.0  # planar start stays planar

    def test_period_sweep(self, tmp_path):
        text = MINIMAL.replace("kind = simulate\neta = 0.1",
                               "kind = period-sweep\neta_list = 0.1,0.05,0.02")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        payload = json.loads((tmp_path / "period-sweep.json").read_text())
        assert payload["A"] > 0
        assert len(payload["periods"]) == 3
        rows = (tmp_path / "period-sweep.csv").read_text().splitlines()
        assert rows[0] == "eta,period" and len(rows) == 4

    def test_floquet(self, tmp_path):
        etas, lams = (0.1, 0.05), (4 * math.pi, 2 * math.pi)
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = floquet\neta_list = 0.1,0.05\n"
            "lambdas = 12.566370614359172,6.283185307179586")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        records = json.loads((tmp_path / "floquet.json").read_text())["records"]
        assert [(r["eta"], r["lambda"]) for r in records] == \
            [(eta, lam) for eta in etas for lam in lams]
        for rec in records:
            mono = floquet(sample_orbit(rec["eta"], 64, cfg.model), rec["lambda"],
                           cfg.model, dt=cfg.stepper.dt)
            assert rec["det"] == mono.determinant and rec["trace"] == mono.trace
            assert rec["multipliers"] == [[m.real, m.imag] for m in mono.multipliers]
            assert rec["classification"] == mono.classification
            assert abs(rec["det"] - 1.0) < 1e-8

    def test_floquet_builds_no_loop_samples(self, tmp_path, monkeypatch):
        import kgorbit.cli as cli
        import kgorbit.stationary as stationary

        def refuse(*args, **kwargs):
            raise AssertionError("the floquet sweep built loop samples")
        monkeypatch.setattr(stationary, "sample_orbit", refuse)
        monkeypatch.setattr(cli, "sample_orbit", refuse, raising=False)
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = floquet\neta_list = 0.1,0.05\nlambdas = 6.283185307179586")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        records = json.loads((tmp_path / "floquet.json").read_text())["records"]
        assert [r["eta"] for r in records] == [0.1, 0.05]

    def test_stability_report(self, tmp_path):
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = stability\neta = 0.1\nloop_budget = 1\nseed = 4\n"
            "distribution = random_direction\nmodes = 1,2,3,4")
        text = text.replace("scheme = split2", "scheme = rk4")
        text = text.replace("max_time = 2.0", "max_time = 50.0")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        payload = json.loads((tmp_path / "stability.json").read_text())
        assert payload["j_within_regime"] is True
        assert len(payload["loop_records"]) == 1
        assert payload["loop_records"][0]["return_time"] > 0
        assert payload["loop_records"][0]["rejected_crossings"]["sign_constraint"] >= 1

    def test_stability_default_budget(self, tmp_path):
        # loop_budget defaults to ceil(loop_rate * ln(1/eta)); rate 0.2 at
        # eta = 0.1 gives one loop
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = stability\neta = 0.1\nloop_rate = 0.2\nmodes = 1,2")
        text = text.replace("scheme = split2", "scheme = rk4")
        text = text.replace("max_time = 2.0", "max_time = 50.0")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        payload = json.loads((tmp_path / "stability.json").read_text())
        assert payload["requested_loops"] == 1
        assert payload["completed_loops"] == 1

    def test_energy_check_anomaly_exit_code(self, tmp_path):
        text = MINIMAL.replace("kind = simulate\neta = 0.1",
                               "kind = energy-check\neta = 0.1\ndrift_tol = 1e-30")
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path)
        # an absurd drift tolerance forces the ANOMALY verdict, exit 2
        assert run(cfg) == 2
        payload = json.loads((tmp_path / "energy-check.json").read_text())
        assert payload["anomaly"] is True

    def test_csv_template_matches_per_value_formatting(self, tmp_path):
        # the writer formats a row with one template; the reference formats
        # every value on its own
        rows = [(1, np.float64(0.1), float("nan"), math.inf),
                (-3, -math.inf, -0.0, 1e-300),
                (np.float64(-0.0), np.float64(np.nan), 2 ** 60, np.float64(1 / 3))]
        header = ["a", "b", "c", "d"]
        _write_csv(str(tmp_path / "new.csv"), header, rows)
        with open(tmp_path / "ref.csv", "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_full_precision(self, tmp_path):
        cfg = parse_config(MINIMAL)
        cfg.output_dir = str(tmp_path)
        run(cfg)
        row = (tmp_path / "simulate.csv").read_text().splitlines()[1].split(",")
        # 17 significant digits round-trip exactly
        assert float(row[1]) == 0.1


FIRST_RETURN = MINIMAL.replace(
    "kind = simulate\neta = 0.1",
    "kind = first-return\neta_list = 0.1,0.05,0.02,0.01\nseeds = 1,2\n"
    "distribution = random_direction\nmodes = 1,2,3").replace(
    "max_time = 2.0", "max_time = 100.0").replace("dt = 1e-3", "dt = 1e-2")


class TestFirstReturnSweep:
    def test_failed_member_is_recorded_and_sweep_goes_on(self, tmp_path, monkeypatch):
        # a budget of 10 periods of 1e-2 leaves the eta = 0.05 members 10
        # steps, far short of their return
        import kgorbit.experiments as experiments
        real_period = experiments.period
        monkeypatch.setattr(experiments, "period",
                            lambda eta, params: 1e-2 if eta == 0.05 else real_period(eta, params))
        cfg = parse_config(FIRST_RETURN)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 2
        payload = json.loads((tmp_path / "first-return.json").read_text())
        runs = payload["runs"]
        assert len(runs) == 8 and payload["failed_runs"] == 2
        for r in runs:
            if r["eta"] == 0.05:
                assert r["error"]["type"] == "NoReturn"
                assert "no admissible crossing" in r["error"]["message"]
                assert "return_time" not in r
            else:
                assert "error" not in r and r["return_time"] > 0 and r["distance"] > 0
        # the fit covers the three eta values whose runs succeeded
        assert payload["distance_exponent_fit"] is not None
        rows = (tmp_path / "first-return.csv").read_text().splitlines()
        assert len(rows) == 9
        failed_rows = [row.split(",") for row in rows[1:] if float(row.split(",")[0]) == 0.05]
        assert len(failed_rows) == 2
        assert all(row[2] == row[3] == row[5] == "nan" for row in failed_rows)

    def test_rerun_gives_identical_files(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(FIRST_RETURN)
        outputs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["--config", str(cfg_path), "--output", str(out)]) in (0, 2)
            outputs.append({f: (out / f).read_bytes()
                            for f in ("first-return.csv", "first-return.json")})
        assert outputs[0] == outputs[1]
        assert b"error" not in outputs[0]["first-return.json"]

    def test_rejected_crossings_reported(self, tmp_path):
        cfg = parse_config(FIRST_RETURN.replace(
            "eta_list = 0.1,0.05,0.02,0.01\nseeds = 1,2", "eta_list = 0.1,0.05\nseeds = 1"))
        cfg.output_dir = str(tmp_path)
        assert run(cfg) == 0
        runs = json.loads((tmp_path / "first-return.json").read_text())["runs"]
        assert len(runs) == 2
        for r in runs:
            rejected = r["rejected_crossings"]
            assert set(rejected) == {"sign_constraint", "stalled", "no_sign_change"}
            # the far turning point (eta', 0) crosses b0 = 0 on the wrong side
            assert rejected["sign_constraint"] >= 1
        header = (tmp_path / "first-return.csv").read_text().splitlines()[0]
        assert header == "eta,seed,return_time,distance,J0,J_at_return"


class TestMain:
    def test_main_success(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--output", str(out_dir)]) == 0
        assert (out_dir / "simulate.json").exists()

    def test_main_parse_error_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("m = 0.5", "m = half"))
        assert main(["--config", str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "ParseError"
        assert record["error"]["key"] == "m"

    def test_overflowing_integer_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("cutoff = 4", "cutoff = 1e400"))
        assert main(["--config", str(cfg_path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError"
        assert (error["line"], error["key"]) == (5, "cutoff")

    def test_bad_stepper_value_record(self, tmp_path, capsys):
        floquet_text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = floquet\neta_list = 0.1\nlambdas = 6.283185307179586")
        for old, new, message in (("dt = 1e-3", "dt = 0", "dt must be positive"),
                                  ("dt = 1e-3", "dt = inf", "dt must be finite"),
                                  ("max_time = 2.0", "max_time = -1",
                                   "max_time must be positive"),
                                  ("max_time = 2.0", "max_time = inf",
                                   "max_time must be finite"),
                                  ("sample_stride = 100", "sample_stride = 0",
                                   "sample_stride must be >= 1")):
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(floquet_text.replace(old, new))
            assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
            error = json.loads(capsys.readouterr().out)["error"]
            assert error == {"type": "ValidationError", "message": message}
        assert not (tmp_path / "o").exists()

    def test_floquet_lambda_at_or_below_mass_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = floquet\neta_list = 0.1\nlambdas = 6.283185307179586,0.3"))
        assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValidationError"
        assert "0.3" in error["message"] and "m = 0.5" in error["message"]
        assert not (tmp_path / "o").exists()

    def test_main_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "IOError"

    def test_format_flag(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--output", str(out_dir),
                     "--format", "json"]) == 0
        assert (out_dir / "simulate.json").exists()
        assert not (out_dir / "simulate.csv").exists()

    def test_seed_override(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = simulate\neta = 0.1\ndistribution = random_direction\n"
            "modes = 1,2\nseed = 1\namplitude = 1e-4")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
        main(["--config", str(cfg_path), "--output", str(out1)])
        main(["--config", str(cfg_path), "--output", str(out2),
              "--seed", "99"])
        main(["--config", str(cfg_path), "--output", str(out3),
              "--seed", "1"])
        j1 = json.loads((out1 / "simulate.json").read_text())
        j2 = json.loads((out2 / "simulate.json").read_text())
        j3 = json.loads((out3 / "simulate.json").read_text())
        assert j1["max_J"] != j2["max_J"]
        assert j1["max_J"] == j3["max_J"]
        # a config that sets 'seeds' would ignore --seed: refused, not run
        capsys.readouterr()
        cfg_path.write_text(text.replace("seed = 1", "seeds = 1,2"))
        out = tmp_path / "o4"
        assert main(["--config", str(cfg_path), "--output", str(out),
                     "--seed", "99"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValidationError"
        assert "--seed" in error["message"] and "'seeds'" in error["message"]
        assert not out.exists()
