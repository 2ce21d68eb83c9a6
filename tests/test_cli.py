import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kgorbit import (ParseError, State, ValidationError, build_spectrum, energy_breakdown,
                     evolve, evolve_ensemble, parse_config, run, serialize_config)
from kgorbit.cli import _initial_state, _write_csv, _write_json, main
from kgorbit.experiments import linear_fit
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

    @pytest.mark.parametrize("dim, cutoff, what", [
        (1, "3e17", "grid row"),                 # 8 (4K+1) bytes
        (1, "6e17", "mode enumeration"),         # 8 (2K+1) bytes, checked first
        (3, "1e12", "mode enumeration"),
        (3, "3e5", "grid row"),                  # 8 (4K+1)^3 bytes
    ])
    def test_model_too_big_for_an_array(self, dim, cutoff, what):
        text = MINIMAL.replace("dim = 1", f"dim = {dim}").replace("cutoff = 4", f"cutoff = {cutoff}")
        with pytest.raises(ParseError, match=what) as err:
            parse_config(text)
        assert (err.value.line, err.value.key) == (5, "cutoff")

    def test_model_that_fits_an_array_parses(self):
        # 3 (2K+1)^3 int64 values and (4K+1)^3 float64 values, both under
        # the largest array size: refused only when it is built
        cfg = parse_config(MINIMAL.replace("dim = 1", "dim = 3").replace("cutoff = 4", "cutoff = 2e5"))
        assert cfg.model.cutoff == 200000

    def test_infinite_floquet_lambda(self):
        with pytest.raises(ValidationError, match="must be finite, got inf"):
            parse_config(MINIMAL.replace(
                "kind = simulate\neta = 0.1",
                "kind = floquet\neta_list = 0.1\nlambdas = 6.5,inf"))

    def test_mass_gate_surfaces_constraint(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("m = 0.5", "m = 7"))
        assert "lambda_1" in str(err.value)

    @pytest.mark.parametrize("raw,value", [
        ("9007199254740993", 2 ** 53 + 1),       # float() rounds it to 2**53
        ("18446744073709551615", 2 ** 64 - 1),   # and this one to 2**64
        ("1e3", 1000), ("8.0", 8)])
    def test_integers_parse_exactly(self, raw, value):
        text = MINIMAL.replace("kind = simulate", f"kind = simulate\nseed = {raw}\nseeds = 1,{raw}")
        ex = parse_config(text.replace("sample_stride = 100", f"sample_stride = {raw}")).experiment
        assert (ex.seed, ex.seeds) == (value, (1, value))
        assert all(type(v) is int for v in ex.seeds)

    @pytest.mark.parametrize("line", ["seed = -1", "seed = 18446744073709551616",
                                      "seeds = 1,-1", "seeds = 1,1e20"])
    def test_seed_outside_u64_names_line_and_key(self, line):
        with pytest.raises(ParseError, match=r"integer in \[0, 2\*\*64\)") as err:
            parse_config(MINIMAL.replace("kind = simulate", "kind = simulate\n" + line))
        assert (err.value.line, err.value.key) == (15, line.split()[0])

    def test_missing_seed_for_random(self):
        bad = MINIMAL.replace("kind = simulate",
                              "kind = simulate\ndistribution = random_direction")
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "seed" in str(err.value)

    @pytest.mark.parametrize("kind", ["stability", "simulate", "energy-check"])
    def test_seeds_stand_in_for_seed_only_in_first_return(self, kind):
        # only a first-return sweep reads 'seeds'; elsewhere a random
        # direction still needs 'seed', refused when the config is parsed
        bad = MINIMAL.replace("kind = simulate",
                              f"kind = {kind}\ndistribution = random_direction\nseeds = 1,2")
        with pytest.raises(ValidationError, match="explicit seed"):
            parse_config(bad)
        ok = bad.replace(f"kind = {kind}", "kind = first-return")
        assert parse_config(ok).experiment.seeds == (1, 2)

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

    @pytest.mark.parametrize("kind", ["simulate", "energy-check"])
    def test_series_read_page_by_page(self, tmp_path, monkeypatch, kind):
        # 6001 samples fill three pages and several energy blocks; the run
        # keeps none of them, and its CSV equals the one written from a run
        # that keeps its samples, bit for bit
        import kgorbit.cli as cli
        runs = []

        def recorded(*args, **kwargs):
            runs.extend(evolve_ensemble(*args, **kwargs))
            return runs[-len(args[0]):]

        monkeypatch.setattr(cli, "evolve_ensemble", recorded)
        cfg = parse_config(MINIMAL.replace("kind = simulate", f"kind = {kind}").replace(
            "max_time = 2.0\nsample_stride = 100", "max_time = 6.0\nsample_stride = 1").replace(
            "eta = 0.1", "eta = 0.1\namplitude = 1e-3\nmodes = 1,2,3"))
        cfg.output_dir = str(tmp_path)
        assert run(cfg) in (0, 2)
        assert len(runs) == 1 and runs[0].pages == []
        table = build_spectrum(cfg.model)
        kept = evolve(_initial_state(cfg, table, 0.1), cfg.stepper, table)
        assert len(kept.pages) == 3 and len(kept.times) == 6001
        e = energy_breakdown(State(kept.a, kept.b), table)
        if kind == "simulate":
            header = ["t", "a0", "b0", "H", "J", "I", "r"]
            columns = (kept.times, kept.a0, kept.b0, e.H, e.J, e.I, e.r)
        else:
            header, columns = ["t", "H_minus_H0"], (kept.times, e.H - e.H[0])
        _write_csv(str(tmp_path / "kept.csv"), header, zip(*(c.tolist() for c in columns)))
        assert (tmp_path / f"{kind}.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()

    def test_energy_check_keeps_t_and_h_and_writes_the_kept_run(self, tmp_path, monkeypatch):
        # energy-check keeps two series per page, not the seven of simulate;
        # its CSV and JSON are those computed from a run that keeps every
        # sample, byte for byte
        import kgorbit.cli as cli
        kept_names = []

        def recorded(*args, **kwargs):
            result = evolve_with_drift(*args, **kwargs)
            kept_names.append(list(result[0]))
            return result

        evolve_with_drift = cli._evolve_with_drift
        monkeypatch.setattr(cli, "_evolve_with_drift", recorded)
        cfg = parse_config(MINIMAL.replace("kind = simulate", "kind = energy-check").replace(
            "max_time = 2.0\nsample_stride = 100", "max_time = 6.0\nsample_stride = 1").replace(
            "eta = 0.1", "eta = 0.1\namplitude = 1e-3\nmodes = 1,2,3"))
        cfg.output_dir = str(tmp_path)
        code = run(cfg)
        assert kept_names == [["t", "H"]]
        table = build_spectrum(cfg.model)
        kept = evolve(_initial_state(cfg, table, 0.1), cfg.stepper, table)
        dh = energy_breakdown(State(kept.a, kept.b), table).H
        dh = dh - dh[0]
        drift = linear_fit(kept.times, dh)["slope"]
        anomaly = abs(drift) > cfg.experiment.drift_tol
        assert code == (2 if anomaly else 0)
        _write_csv(str(tmp_path / "kept.csv"), ["t", "H_minus_H0"],
                   zip(kept.times.tolist(), dh.tolist()))
        _write_json(str(tmp_path / "kept.json"), {
            "experiment": "energy-check", "eta": 0.1, "drift_slope": drift,
            "drift_tol": cfg.experiment.drift_tol,
            "max_abs_deviation": float(np.abs(dh).max()), "anomaly": anomaly})
        for suffix in ("csv", "json"):
            assert (tmp_path / f"energy-check.{suffix}").read_bytes() \
                == (tmp_path / f"kept.{suffix}").read_bytes()

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

    @pytest.mark.parametrize("eta_list", ["0.1", "0.1,0.1,0.1"])
    def test_period_sweep_needs_two_distinct_etas(self, tmp_path, capsys, eta_list):
        # one distinct eta fits no line: numpy warned and a fit with
        # r_squared 1.0 was written, with exit code 0
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("kind = simulate\neta = 0.1",
                                            f"kind = period-sweep\neta_list = {eta_list}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValidationError" and "eta_list" in error["message"]
        assert not (tmp_path / "o").exists()

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

    def test_members_keep_no_samples(self, tmp_path, monkeypatch):
        import kgorbit.cli as cli
        from kgorbit import run_first_returns
        results = []

        def recorded(*args, **kwargs):
            results.extend(run_first_returns(*args, **kwargs))
            return results

        monkeypatch.setattr(cli, "run_first_returns", recorded)
        cfg = parse_config(FIRST_RETURN)
        cfg.output_dir = str(tmp_path)
        assert run(cfg) in (0, 2)
        assert len(results) == 8
        assert all(r.trajectory.pages == [] and len(r.trajectory.events) == 1 for r in results)

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


BAD_RATE = "loop_rate must be > 0 and give a finite loop count ceil(loop_rate ln(1/eta)), got "


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

    @pytest.mark.parametrize("kind,new,message", [
        ("stability", "loop_rate = inf", BAD_RATE + "inf"),
        ("stability", "loop_rate = nan", BAD_RATE + "nan"),
        ("stability", "loop_rate = -1", BAD_RATE + "-1.0"),
        # finite, but ceil(loop_rate ln(1/eta)) overflows
        ("stability", "loop_rate = 1e308", BAD_RATE + "1e+308"),
        ("stability", "loop_budget = -1", "loop_budget must be >= 1, got -1"),
        ("stability", "loop_budget = 0", "loop_budget must be >= 1, got 0"),
        ("stability", "dist_coefficient = nan",
         "dist_coefficient must be finite and >= 0, got nan"),
        ("energy-check", "drift_tol = nan", "drift_tol must be finite and >= 0, got nan"),
        ("energy-check", "drift_tol = inf", "drift_tol must be finite and >= 0, got inf"),
    ])
    def test_bad_experiment_value_record(self, tmp_path, capsys, kind, new, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("kind = simulate\neta = 0.1",
                                            f"kind = {kind}\neta = 0.1\n{new}"))
        assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ValidationError", "message": message}
        assert not (tmp_path / "o").exists()

    def test_overflowing_floquet_monodromy_record(self, tmp_path, capsys):
        # lambda = 1e4 at dt = 1e-3 is past RK4's stability bound; 1e3 is not,
        # and its det 0.0 is an ANOMALY verdict instead
        cfg_path = tmp_path / "run.cfg"
        for lam, code in (("1000", 2), ("10000", 1)):
            cfg_path.write_text(MINIMAL.replace(
                "kind = simulate\neta = 0.1",
                f"kind = floquet\neta_list = 0.1\nlambdas = 6.283185307179586,{lam}"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")    # a numpy warning would raise here
                assert main(["--config", str(cfg_path), "--output", str(tmp_path / lam)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""           # the error record is the only report
        error = json.loads(captured.out)["error"]
        assert error["type"] == "OutOfRange"
        assert "lambda = 10000.0" in error["message"] and "dt = 0.001" in error["message"]
        assert not (tmp_path / "10000").exists()

    def test_overflowing_stability_run_warns_nothing(self, tmp_path, capsys):
        # dt = 0.1 is past rk4's stability bound at K = 8: the chain leaves
        # the regime in its first loop, and the J exit is the only report
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("cutoff = 4", "cutoff = 8").replace(
            "dt = 1e-3\nscheme = split2", "dt = 0.1\nscheme = rk4").replace(
            "kind = simulate\neta = 0.1",
            "kind = stability\neta = 0.05\ndistribution = random_direction\n"
            "seed = 1\nloop_budget = 2"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "o" / "stability.json").read_text())
        assert report["regime_exited_at"] == 0 and report["j_within_regime"] is False

    def test_memory_error_record(self, tmp_path, capsys, monkeypatch):
        import kgorbit.cli as cli

        def too_big(params):
            raise MemoryError("Unable to allocate 2.00 EiB for an array")
        monkeypatch.setattr(cli, "build_spectrum", too_big)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "MemoryError", "message": "Unable to allocate 2.00 EiB for an array"}
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

    def test_python_m_kgorbit(self, tmp_path):
        import kgorbit
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace(
            "kind = simulate\neta = 0.1",
            "kind = floquet\neta_list = 0.1\nlambdas = 6.283185307179586"))
        src = os.path.dirname(os.path.dirname(os.path.abspath(kgorbit.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "kgorbit", "--config", str(cfg_path),
             "--output", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert len(json.loads((tmp_path / "o" / "floquet.json").read_text())["records"]) == 1

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
        # a seed outside [0, 2**64) is refused before the run starts
        for bad in ("-1", str(2 ** 64)):
            out = tmp_path / ("bad" + bad)
            assert main(["--config", str(cfg_path), "--output", str(out), "--seed", bad]) == 1
            error = json.loads(capsys.readouterr().out)["error"]
            assert error == {"type": "ValidationError",
                             "message": f"a seed must be an integer in [0, 2**64), got {bad}"}
            assert not out.exists()
        # a config that sets 'seeds' would ignore --seed: refused, not run
        capsys.readouterr()
        cfg_path.write_text(text.replace("seed = 1", "seed = 1\nseeds = 1,2"))
        out = tmp_path / "o4"
        assert main(["--config", str(cfg_path), "--output", str(out),
                     "--seed", "99"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValidationError"
        assert "--seed" in error["message"] and "'seeds'" in error["message"]
        assert not out.exists()
