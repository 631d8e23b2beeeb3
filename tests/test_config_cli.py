import copy
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyperburg import (ConfigError, HyperburgError, ModelParams, RunStatus, calibrated_profile,
                       sample_initial_state)
from hyperburg.cli import main
from hyperburg.config import (ICConfig, OutputConfig, RunConfig, config_from_dict, load_config,
                              refinement_ladder, resolve_output_dir)
from hyperburg.operators import trapezoid_dot
from hyperburg.runner import CSV_COLUMNS, execute_config
from hyperburg.solver import stable_dt
from hyperburg.suite import preset_configs


def base_doc(outdir="out"):
    return {
        "params": {"mu": 1.0, "nu": 1.0, "L": 1.0},
        "grid": {"xmin": -4.0, "xmax": 4.0, "n": 256},
        "cfl": 0.4,
        "t_end": 1.0,
        "blowup_threshold": None,
        "record_stride": 8,
        "ic": {"family": "odd_bump", "a": 0.5, "b": 0.0},
        "output": {"directory": outdir, "emit_csv": True, "emit_report": True},
    }


def blowup_doc(outdir, n=512):
    return {
        "params": {"mu": 1.0, "nu": 1.0, "L": 1.0},
        "grid": {"xmin": -8.0, "xmax": 8.0, "n": n},
        "t_end": 6.5,
        "record_stride": 8,
        "ic": {"family": "odd_bump", "F0_target": 40.0, "F1_target": 200.0},
        "output": {"directory": outdir, "emit_csv": True, "emit_report": True},
    }


class TestConfigParsing:
    def test_valid_document_round_trips(self):
        config = config_from_dict(base_doc())
        assert config.to_dict() == base_doc()

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.update(tyop=1), "unknown keys in config"),
        (lambda d: d["params"].update(mass=2.0), "unknown keys in params"),
        (lambda d: d["grid"].update(dy=0.1), "unknown keys in grid"),
        (lambda d: d["ic"].update(shape="x"), "unknown keys in ic"),
        (lambda d: d["output"].update(plot=True), "unknown keys in output"),
    ])
    def test_unknown_keys_rejected(self, mutate, match):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(doc)

    def test_missing_required_keys(self):
        doc = base_doc()
        del doc["t_end"]
        with pytest.raises(ConfigError, match="missing keys"):
            config_from_dict(doc)

    def test_ic_needs_exactly_one_mode(self):
        doc = base_doc()
        doc["ic"] = {"family": "odd_bump"}
        with pytest.raises(ConfigError, match="ic must give"):
            config_from_dict(doc)
        doc["ic"] = {"family": "odd_bump", "a": 1.0, "b": 0.0, "F0_target": 40.0,
                     "F1_target": 200.0}
        with pytest.raises(ConfigError, match="ic must give"):
            config_from_dict(doc)

    def test_defaults_are_the_json_defaults(self):
        doc = base_doc()
        for key in ("cfl", "blowup_threshold", "record_stride", "output"):
            del doc[key]
        config = config_from_dict(doc)
        assert config == RunConfig(config.params, config.grid, 1.0, config.ic)
        echo = config.to_dict()
        assert (echo["cfl"], echo["blowup_threshold"], echo["record_stride"]) == (0.4, None, 1)
        assert echo["output"] == {"directory": "out", "emit_csv": True, "emit_report": True}
        assert config_from_dict(echo) == config

    @pytest.mark.parametrize("mutate", [
        lambda d: d["grid"].update(n=256.0),
        lambda d: d["grid"].update(n=True),
        lambda d: d.update(record_stride=0),
        lambda d: d.update(cfl=1.5),
        lambda d: d.update(t_end=-1.0),
        lambda d: d.update(blowup_threshold=-5.0),
        lambda d: d["params"].update(mu=0.0),
        lambda d: d["ic"].update(family="gaussian"),
        lambda d: d.update(ic={"family": "odd_bump", "a": None, "b": None,
                               "F0_target": 40.0, "F1_target": 200.0}),
        lambda d: d["output"].update(directory=""),
    ])
    def test_bad_values_rejected(self, mutate):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("mutate,where", [
        (lambda d: d["ic"].update(b=math.nan), "ic.b"),
        (lambda d: d.update(blowup_threshold=math.inf), "config.blowup_threshold"),
        (lambda d: d.update(ic={"family": "odd_bump", "F0_target": math.nan,
                                "F1_target": 200.0}), "ic.F0_target"),
        (lambda d: d["ic"].update(a=math.inf), "ic.a"),
        (lambda d: d["grid"].update(xmin=-math.inf, xmax=math.inf), "grid.xmin"),
    ], ids=["ic.b", "blowup_threshold", "ic.F0_target", "ic.a", "grid"])
    def test_nonfinite_numbers_rejected(self, tmp_path, mutate, where):
        # json.load accepts NaN and Infinity; they must fail before stepping.
        doc = base_doc()
        mutate(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"{where} must be finite, got"):
            load_config(path)

    @pytest.mark.parametrize("build,match", [
        (lambda c: RunConfig(c.params, c.grid, -1.0, c.ic), "t_end must be a finite number > 0"),
        (lambda c: RunConfig(c.params, c.grid, 1.0, c.ic, cfl=1.5), r"cfl must lie in \(0, 1\]"),
        (lambda c: RunConfig(c.params, c.grid, 1.0, c.ic, record_stride=0),
         "record_stride must be an integer >= 1"),
        (lambda c: RunConfig(c.params, c.grid, 1.0, c.ic, blowup_threshold=-5.0),
         "blowup_threshold must be finite and > 0"),
        (lambda c: RunConfig(c.params, c.grid, 1.0, c.ic, blowup_threshold=math.inf),
         "blowup_threshold must be finite and > 0"),
        (lambda c: dataclasses.replace(c, cfl=1.5), r"cfl must lie in \(0, 1\]"),
        (lambda c: ICConfig("odd_bump"), "ic must give"),
        (lambda c: ICConfig("odd_bump", a=1.0), "ic needs both amplitudes a and b"),
        (lambda c: ICConfig("odd_bump", F1_target=200.0), "ic needs both F0_target and F1_target"),
        (lambda c: ICConfig("odd_bump", 40.0, 200.0, 1.0, 0.0), "ic must give"),
        (lambda c: ICConfig("gaussian", a=1.0, b=0.0), "ic.family must be one of"),
        (lambda c: ICConfig("odd_bump", a=math.nan, b=0.0), "ic numbers must be finite"),
        (lambda c: OutputConfig(""), "output.directory must be a non-empty string"),
    ], ids=["t_end", "cfl", "record_stride", "blowup_threshold", "blowup_threshold-inf",
            "replace", "ic-empty", "ic-half-raw", "ic-half-targets", "ic-both-modes", "ic-family",
            "ic-nan", "output"])
    def test_values_checked_however_built(self, build, match):
        # A config built in code, or replaced, is checked as a JSON file is.
        with pytest.raises(ConfigError, match=match):
            build(config_from_dict(base_doc()))

    def test_params_built_in_code_are_checked(self):
        # A ModelParams built directly holds the rules validate_params applies.
        c = config_from_dict(base_doc())
        with pytest.raises(HyperburgError, match="mu must be positive"):
            RunConfig(ModelParams(-1.0, 1.0, 1.0), c.grid, 1.0, c.ic)

    def test_margin_violation_rejected(self):
        doc = base_doc()
        doc["t_end"] = 10.0  # support would reach the boundary
        with pytest.raises(ConfigError, match="support may reach"):
            config_from_dict(doc)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc()))
        assert load_config(path).t_end == 1.0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)
        bad.write_bytes(b"\xff\xfe")  # not UTF-8
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)


class TestRefinementLadder:
    @pytest.mark.parametrize("doc", [blowup_doc("runs/b", n=1025), base_doc("runs/a")],
                             ids=["blowup", "small"])
    def test_levels_halve_dx_and_keep_everything_else(self, doc):
        base = config_from_dict(doc)
        ladder = refinement_ladder(base, 4)
        n0 = base.grid.n
        assert [c.grid.n for c in ladder] == [(n0 - 1) * 2**k + 1 for k in range(4)]
        for coarse, fine in zip(ladder, ladder[1:]):
            assert coarse.grid.dx == 2.0 * fine.grid.dx
            assert stable_dt(coarse.grid, base.params, base.cfl) == 2.0 * stable_dt(
                fine.grid, base.params, base.cfl)
        for config in ladder:
            assert config.output.directory == f"{doc['output']['directory']}-n{config.grid.n}"
            assert dataclasses.replace(config, grid=base.grid, output=base.output) == base
            assert config_from_dict(config.to_dict()) == config

    def test_needs_two_levels(self):
        with pytest.raises(ConfigError, match="levels >= 2"):
            refinement_ladder(config_from_dict(base_doc()), 1)


def with_directory(config, directory):
    return dataclasses.replace(
        config, output=dataclasses.replace(config.output, directory=directory))


class TestOutputResolution:
    def test_cli_override_wins(self, monkeypatch, tmp_path):
        # An override is a config whose directory was replaced, as --out does.
        monkeypatch.delenv("HYPERBURG_OUT", raising=False)
        config = config_from_dict(base_doc("cfg-dir"))
        assert resolve_output_dir(config) == Path("cfg-dir")
        assert resolve_output_dir(with_directory(config, "cli-dir")) == Path("cli-dir")

    def test_env_roots_relative_paths(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HYPERBURG_OUT", str(tmp_path / "root"))
        config = config_from_dict(base_doc("cfg-dir"))
        assert resolve_output_dir(config) == tmp_path / "root" / "cfg-dir"
        absolute = str(tmp_path / "abs")
        assert resolve_output_dir(with_directory(config, absolute)) == Path(absolute)


class TestExecuteConfig:
    def test_zero_amplitude_run(self, tmp_path):
        doc = base_doc(str(tmp_path / "zero"))
        doc["ic"] = {"family": "odd_bump", "a": 0.0, "b": 0.0}
        report = execute_config(config_from_dict(doc))
        assert report.status == RunStatus.COMPLETED.value
        assert report.worst["schwartz_gap_rel"] == 0.0
        assert report.worst["gronwall_margin"] == 0.0
        assert report.worst["identity_residual_max"] == 0.0
        assert report.worst["support_excess"] is None
        assert report.sobolev == {"H2": 0.0, "H3": 0.0}
        assert Path(report.files["csv"]).exists()
        assert Path(report.files["report"]).exists()
        # no certificate: the G_lower_bound column stays empty
        lines = Path(report.files["csv"]).read_text().splitlines()
        g_col = CSV_COLUMNS.index("G_lower_bound")
        assert all(line.split(",")[g_col] == "" for line in lines[1:])

    def test_identity_unchecked_without_uniform_triple(self, tmp_path):
        # Blow-up after 18 steps at stride 10: records at steps 0, 10, 18,
        # so no uniform triple exists and the residual is reported as null.
        doc = blowup_doc(str(tmp_path / "short"))
        doc["record_stride"] = 10
        report = execute_config(config_from_dict(doc))
        assert report.n_records == 3
        assert report.worst["identity_residual_max"] is None
        loaded = json.loads(Path(report.files["report"]).read_text())
        assert loaded["worst"]["identity_residual_max"] is None

    def test_csv_schema_and_precision(self, tmp_path):
        doc = blowup_doc(str(tmp_path / "b"))
        report = execute_config(config_from_dict(doc))
        lines = Path(report.files["csv"]).read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # G(0) = F(0) in the G_lower_bound column, full precision; the
        # calibrated moment itself is within a few ulps of the target
        assert first[10] == first[2]
        assert abs(float(first[2]) - 40.0) <= 8 * np.spacing(40.0)
        # round-trip: every numeric cell reparses to the same repr
        for cell in lines[2].split(","):
            if cell:
                assert repr(float(cell)) == cell

    def test_rerun_is_bit_identical(self, tmp_path):
        doc = blowup_doc(str(tmp_path / "a"))
        report = execute_config(config_from_dict(doc))
        fresh = execute_config(with_directory(config_from_dict(report.config),
                                              str(tmp_path / "a2")))
        assert fresh.files["csv"] != report.files["csv"]
        assert (Path(fresh.files["csv"]).read_bytes()
                == Path(report.files["csv"]).read_bytes())

    def test_report_json_self_contained(self, tmp_path):
        doc = blowup_doc(str(tmp_path / "r"))
        report = execute_config(config_from_dict(doc))
        loaded = json.loads(Path(report.files["report"]).read_text())
        assert loaded["config"] == report.config
        assert loaded["status"] == "blowup_detected"
        assert loaded["certificate"]["eps_interval"] is not None
        assert loaded["certificate"]["T_star_tightest"] <= loaded["certificate"]["T_star"]
        assert math.isfinite(loaded["worst"]["comparison_margin_rel"])

    @pytest.mark.parametrize("doc", [base_doc, blowup_doc], ids=["completed", "blowup"])
    def test_report_perf_block(self, tmp_path, doc):
        config = config_from_dict(doc(str(tmp_path / "p")))
        report = execute_config(config)
        loaded = json.loads(Path(report.files["report"]).read_text())
        perf = loaded["perf"]
        assert list(perf) == ["n_steps", "dt", "stepped_frac", "setup_s", "stepping_s",
                              "records_s", "output_s"]
        assert perf["n_steps"] == report.outcome.n_steps > 0
        assert 0.0 < perf["stepped_frac"] == report.outcome.stepped_frac <= 1.0
        assert perf["dt"] == stable_dt(config.grid, config.params, config.cfl)
        # n_steps steps of dt reach the final time
        assert perf["n_steps"] * perf["dt"] == pytest.approx(loaded["t_final"], rel=1e-12)
        if loaded["status"] == "completed":
            assert loaded["t_final"] >= config.t_end
        assert all(perf[k] >= 0.0 for k in ("setup_s", "stepping_s", "records_s", "output_s"))
        assert perf["records_s"] == report.outcome.record_s > 0.0

    def test_written_report_names_its_own_file(self, tmp_path):
        report = execute_config(config_from_dict(base_doc(str(tmp_path / "f"))))
        loaded = json.loads(Path(report.files["report"]).read_text())
        assert loaded["files"] == report.to_dict()["files"]
        assert loaded["files"]["report"] == str(tmp_path / "f" / "report.json")

    def test_blowup_preset_finest_level_steps_under_half_the_grid(self, blowup_reports):
        assert 0.0 < blowup_reports[-1].perf["stepped_frac"] < 0.5

    def test_resolution_null_width_for_a_broken_final_state(self, tmp_path):
        doc = base_doc(str(tmp_path / "nf"))
        doc["ic"] = {"family": "odd_bump", "a": 1e9, "b": 0.0}
        doc["blowup_threshold"] = 1e307
        report = execute_config(config_from_dict(doc))
        assert report.status == "numerical_failure"
        assert report.resolution["spike_width_nodes"] is None
        assert math.isfinite(report.resolution["max_sup_over_c"])

    def test_to_dict_never_visits_the_outcome(self, tmp_path):
        doc = base_doc(str(tmp_path / "d"))
        report = execute_config(config_from_dict(doc))
        expected = report.to_dict()

        class Uncopyable:
            def __deepcopy__(self, memo):
                raise AssertionError("outcome copied")

        report.outcome = Uncopyable()
        assert report.to_dict() == expected
        assert "outcome" not in expected
        expected["config"]["t_end"] = -1.0  # a copy: the report is untouched
        assert report.config["t_end"] == 1.0

    def test_certificate_verdicts_are_python_types(self, tmp_path):
        doc = blowup_doc(str(tmp_path / "t"))
        doc["output"] = {"directory": "unused", "emit_csv": False, "emit_report": False}
        report = execute_config(config_from_dict(doc))
        assert type(report.certificate["thresholds_met"]) is bool
        assert type(report.certificate["F0"]) is float
        json.dumps(report.certificate)

    @pytest.mark.parametrize("n", [513, 16385])
    def test_certificate_moments_are_the_whole_grid_dots(self, tmp_path, n):
        # The certificate reads the t = 0 record.  On 16385 nodes the
        # record's dot is split at DOT_SPLIT; the bits are still the
        # whole-grid moments'.
        doc = blowup_doc(str(tmp_path / "m"), n=n)
        doc["t_end"] = 0.01
        config = config_from_dict(doc)
        report = execute_config(config)
        params, grid = config.params, config.grid
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", params.L, grid, 40.0, 200.0))
        want = [trapezoid_dot(grid.nodes(), row, grid.dx, 0, grid.n).hex()
                for row in (state0.v, state0.w)]
        assert [report.certificate["F0"].hex(), report.certificate["F1"].hex()] == want
        first = report.outcome.records[0]
        assert [first.F.hex(), first.Fprime.hex()] == want

    def test_no_library_warning_escapes_an_overflowing_run(self, tmp_path):
        # A sweep-size run whose data overflow the moments' dot.  Only the
        # absence of warnings is asserted, not the status.
        doc = blowup_doc(str(tmp_path / "o"))
        doc["t_end"] = 2.0
        doc["ic"]["F0_target"] = 1e307
        config = config_from_dict(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = execute_config(config)
        assert report.certificate["F0"] == math.inf

    def test_no_output_written_for_invalid_config(self, tmp_path):
        out = tmp_path / "never"
        doc = base_doc(str(out))
        doc["t_end"] = 10.0
        with pytest.raises(ConfigError):
            execute_config(config_from_dict(doc))
        assert not out.exists()


class TestCLI:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(str(tmp_path / "ok"))))
        assert main(["run", "--config", str(cfg)]) == 0

        cfg.write_text(json.dumps(blowup_doc(str(tmp_path / "bu"))))
        assert main(["run", "--config", str(cfg)]) == 2

        bad = copy.deepcopy(base_doc(str(tmp_path / "bad")))
        bad["t_end"] = 10.0
        cfg.write_text(json.dumps(bad))
        assert main(["run", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_run_rejects_threshold_below_initial_sup(self, tmp_path, capsys):
        out = tmp_path / "bu"
        doc = blowup_doc(str(out))
        doc["blowup_threshold"] = 1.0  # the data start at sup|v0| = 75.2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "null" in capsys.readouterr().err
        assert not out.exists()

    def test_run_rejects_a_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_run_writes_strict_json(self, tmp_path, capsys):
        # The t = 0 moments overflow: report.json and stdout write the
        # non-finite numbers as null, which a strict parser accepts.
        doc = blowup_doc(str(tmp_path / "o"))
        doc["t_end"] = 2.0
        doc["ic"]["F0_target"] = 1e307
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        main(["run", "--config", str(cfg)])

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        written = json.loads(Path(printed["files"]["report"]).read_text(), parse_constant=reject)
        assert printed["certificate"]["F0"] is None
        assert {k: v for k, v in written.items() if k != "perf"} == {
            k: v for k, v in printed.items() if k != "perf"}

    def test_run_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = base_doc(str(tmp_path / "nf"))
        doc["ic"] = {"family": "odd_bump", "a": 1e9, "b": 0.0}
        doc["blowup_threshold"] = 1e307
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("preset", ["blowup", "smalldata"])
    def test_run_prints_resolution(self, tmp_path, capsys, preset):
        config = preset_configs(preset, tmp_path)[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config.to_dict()))
        code = main(["run", "--config", str(cfg)])
        printed = json.loads(capsys.readouterr().out)
        assert code == (2 if preset == "blowup" else 0)
        resolution = printed["resolution"]
        assert list(resolution) == ["max_sup_over_c", "max_cell_peclet", "spike_width_nodes"]
        assert json.loads(Path(printed["files"]["report"]).read_text())["resolution"] == resolution
        rows = [line.split(",") for line in
                Path(printed["files"]["csv"]).read_text().splitlines()[1:]]
        peak = max(float(r[1]) for r in rows)
        params = config.params
        assert resolution["max_sup_over_c"] == peak / params.c
        assert resolution["max_cell_peclet"] == peak * config.grid.dx / params.nu
        width = resolution["spike_width_nodes"]
        if preset == "blowup":
            # detection at the default threshold, on a spike a few nodes wide
            threshold = 1e6 * max(1.0, float(rows[0][1]))
            assert resolution["max_sup_over_c"] >= threshold / params.c
            assert 1 <= width < 64
        else:
            # small data never exceed their initial sup|v| ~ 0.05 c; the
            # decayed profile is wide
            assert resolution["max_sup_over_c"] == float(rows[0][1]) / params.c
            assert 0.049 < resolution["max_sup_over_c"] <= 0.05
            assert width > 64

    def test_out_option_overrides_directory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(str(tmp_path / "ignored"))))
        target = tmp_path / "chosen"
        assert main(["run", "--config", str(cfg), "--out", str(target)]) == 0
        assert (target / "records.csv").exists()
        assert not (tmp_path / "ignored").exists()
        capsys.readouterr()

    def test_out_option_is_echoed(self, tmp_path, capsys, monkeypatch):
        # The echo names the directory written, so re-running it writes there.
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(base_doc("from-config")))
        assert main(["run", "--config", "cfg.json", "--out", "chosen"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["config"]["output"]["directory"] == "chosen"
        written = json.loads(Path("chosen/report.json").read_text())
        assert written["config"]["output"]["directory"] == "chosen"
        assert not Path("from-config").exists()

    def test_thresholds_json(self, capsys):
        assert main(["thresholds", "--mu", "1", "--nu", "1", "--L", "1",
                     "--F0", "40", "--F1", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds_met"] is True
        assert doc["F0_min"] == pytest.approx(112.0 / 3.0, rel=1e-12)

    def test_certificate_json(self, capsys):
        assert main(["certificate", "--mu", "1", "--nu", "1", "--L", "1",
                     "--F0", "40", "--F1", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps_interval"][0] == pytest.approx(0.632455532, rel=1e-9)
        assert doc["T_star"] is not None

    def test_suite_unknown_preset(self, capsys):
        assert main(["suite", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "valid presets" in err and "propagation" in err

    def test_run_suite_api_rejects_unknown_preset(self):
        from hyperburg.suite import run_suite

        with pytest.raises(ConfigError, match="valid presets"):
            run_suite("no-such-preset")

    def test_suite_certificate_oracle_passes(self, capsys):
        assert main(["suite", "certificate-oracle"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_convergence_study(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blowup_doc(str(tmp_path / "conv"), n=513)))
        assert main(["convergence", "--config", str(cfg), "--levels", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [lvl["n"] for lvl in doc["levels"]] == [513, 1025]
        assert all(lvl["status"] == "blowup_detected" for lvl in doc["levels"])
        assert "converged" in doc and "t_m_estimate" in doc
        assert doc["order"] is None and doc["t_inf"] is None and doc["t_inf_error"] is None

    def test_convergence_study_three_levels(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blowup_doc(str(tmp_path / "conv"), n=513)))
        assert main(["convergence", "--config", str(cfg), "--levels", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [lvl["n"] for lvl in doc["levels"]] == [513, 1025, 2049]
        t = [lvl["t_detect"] for lvl in doc["levels"]]
        assert doc["t_m_estimate"] == t[-1]
        assert doc["order"] == math.log2((t[0] - t[1]) / (t[1] - t[2]))
        assert doc["t_inf"] == t[2] + (t[2] - t[1]) / (2.0 ** doc["order"] - 1.0)
        assert doc["t_inf_error"] == abs(doc["t_inf"] - t[2])
        assert (tmp_path / "conv-n2049" / "records.csv").exists()

    def test_convergence_out_roots_the_ladder_names(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blowup_doc(str(tmp_path / "runs" / "conv"), n=513)))
        out = tmp_path / "O"
        assert main(["convergence", "--config", str(cfg), "--levels", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["conv-n1025", "conv-n513"]
        for n in (513, 1025):
            report = json.loads((out / f"conv-n{n}" / "report.json").read_text())
            assert report["config"]["output"]["directory"] == str(out / f"conv-n{n}")
            assert (out / f"conv-n{n}" / "records.csv").exists()
        assert not (tmp_path / "runs").exists()

    def test_convergence_needs_levels(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blowup_doc(str(tmp_path / "c1"))))
        assert main(["convergence", "--config", str(cfg), "--levels", "1"]) == 1
        capsys.readouterr()
