import json
import math

import pytest

from torgrowth import torsion
from torgrowth.cli import main as cli_main
from torgrowth.growthlab import (
    ConfigError,
    ExperimentConfig,
    SizeGuardExceeded,
    groupalg_identity_suite,
    mahler_target,
    run,
)
from torgrowth.laurent import poly_to_json, variables
from torgrowth.torsion import GrowthSample

t, = variables(1)
t1, t2 = variables(2)

T_MINUS_2 = {"nvars": 1, "matrix": [[poly_to_json(t - 2)]]}


def config_dict(**overrides):
    base = {
        "module": dict(T_MINUS_2),
        "sequence": {"cyclic": {"start": 1, "stop": 12}},
        "mahler": {"method": "auto"},
        "seed": 0,
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_requires_single_module_source(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"module": {}, "sequence": {"cyclic": {"stop": 3}}})
        bad = config_dict()
        bad["module"]["presentation"] = "x.txt"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad, tmp_path)

    def test_requires_single_sequence(self):
        cfg = config_dict()
        cfg["sequence"] = {"cyclic": {"stop": 3}, "diagonal": {"stop": 2}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_cyclic_needs_univariate(self):
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_presentation_source(self, tmp_path, trefoil_text):
        (tmp_path / "k.txt").write_text(trefoil_text)
        cfg = {
            "module": {"presentation": "k.txt", "branched": True},
            "sequence": {"cyclic": {"start": 1, "stop": 4}},
        }
        config = ExperimentConfig.from_dict(cfg, tmp_path)
        assert config.module.m0 == 3 and config.branched

    def test_gamma_sj_sequence(self):
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg["sequence"] = {"gamma_sj": {"kappa": [0.7071067811, 0.7071067811], "js": [1, 2]}}
        config = ExperimentConfig.from_dict(cfg)
        assert len(config.sequence) == 2

    def test_unknown_method(self):
        cfg = config_dict(mahler={"method": "sorcery"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("sequence", [
        {"cyclic": {"start": 1}},
        {"diagonal": {"start": 1}},
        {"gamma_sj": {"js": [1, 2]}},
        {"cyclic": 5},
    ])
    def test_malformed_sequence_is_config_error(self, sequence):
        cfg = config_dict(sequence=sequence)
        if "cyclic" not in sequence:
            cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("sequence, descriptor", [
        ({"diagonal": {"ds": [8, 16, 0]}}, "diagonal:0"),
        ({"cyclic": {"start": 0, "stop": 3}}, "cyclic:0"),
    ])
    def test_rank_deficient_subgroup_is_config_error(self, sequence, descriptor):
        cfg = config_dict(sequence=sequence)
        if "diagonal" in sequence:
            cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        with pytest.raises(ConfigError, match=f"^{descriptor}: .*quotient is infinite"):
            ExperimentConfig.from_dict(cfg)


class TestRun:
    def test_geometric_growth_module(self, tmp_path):
        config = ExperimentConfig.from_dict(config_dict())
        report = run(config, out_dir=tmp_path)
        assert report.target.value == pytest.approx(math.log(2), abs=1e-9)
        assert [s.torsion_order for s in report.samples] == [2 ** l - 1 for l in range(1, 13)]
        assert report.final_gap < 0.01
        csv = (tmp_path / "samples.csv").read_text().splitlines()
        assert csv[0] == GrowthSample.CSV_HEADER
        assert len(csv) == 13
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["samples"][0]["index"] == 1

    def test_free_module_is_exactly_zero(self):
        cfg = config_dict()
        cfg["module"] = {"nvars": 1, "matrix": [], "m0": 1}
        report = run(ExperimentConfig.from_dict(cfg))
        assert all(s.torsion_order == 1 and s.growth_stat == 0.0 for s in report.samples)
        assert report.target.value == 0.0

    def test_samples_sorted_by_index(self):
        cfg = config_dict()
        cfg["sequence"] = {"cyclic": {"start": 1, "stop": 9, "step": 4}}
        report = run(ExperimentConfig.from_dict(cfg))
        assert [s.index for s in report.samples] == [1, 5, 9]

    def test_reproducible_reports(self, tmp_path):
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg["sequence"] = {"diagonal": {"ds": [1, 2, 3]}}
        cfg["mahler"] = {"method": "quadrature", "samples": 50000}
        r1 = run(ExperimentConfig.from_dict(cfg), out_dir=tmp_path / "a")
        r2 = run(ExperimentConfig.from_dict(cfg), out_dir=tmp_path / "b")
        j1 = json.loads((tmp_path / "a" / "report.json").read_text())
        j2 = json.loads((tmp_path / "b" / "report.json").read_text())
        j1["metadata"].pop("timings")
        j2["metadata"].pop("timings")
        assert j1 == j2
        assert (tmp_path / "a" / "samples.csv").read_text() == (
            tmp_path / "b" / "samples.csv"
        ).read_text()

    def test_growth_stat_roundtrip_through_csv(self, tmp_path):
        config = ExperimentConfig.from_dict(config_dict())
        run(config, out_dir=tmp_path)
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        for row in rows:
            s = GrowthSample.from_csv_row(row)
            parts = row.split(";")
            assert float(parts[5]) == s.growth_stat
            assert float(parts[4]) == s.log_torsion

    def test_size_guard(self):
        cfg = config_dict()
        cfg["sequence"] = {"cyclic": {"start": 5100, "stop": 5100}}
        with pytest.raises(SizeGuardExceeded):
            run(ExperimentConfig.from_dict(cfg))
        cfg["force"] = True
        config = ExperimentConfig.from_dict(cfg)
        assert config.force

    def test_parallel_matches_serial(self):
        # jobs=1 runs in process without the JSON round trip the pool needs;
        # both must write the same report apart from the timings
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg["sequence"] = {"diagonal": {"ds": [3, 1, 2, 4]}}
        reports = []
        for jobs in (1, 2):
            blob = run(ExperimentConfig.from_dict(cfg, jobs=jobs)).to_json_dict()
            del blob["metadata"]["timings"]
            reports.append(json.dumps(blob, sort_keys=True))
        assert reports[0] == reports[1]

    def test_figure_eight_branched_sweep(self, tmp_path, fig8_text):
        (tmp_path / "fig8.txt").write_text(fig8_text)
        cfg = {
            "module": {"presentation": "fig8.txt", "branched": True},
            "sequence": {"cyclic": {"start": 1, "stop": 100}},
            "seed": 0,
        }
        report = run(ExperimentConfig.from_dict(cfg, tmp_path))
        assert report.target.value == pytest.approx(0.9624236501, abs=1e-8)
        assert report.final_gap < 0.05

    def test_direction_reported_for_gamma_sj(self):
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg["sequence"] = {"gamma_sj": {"kappa": [0.7071067811, 0.7071067811], "js": [2, 4]}}
        report = run(ExperimentConfig.from_dict(cfg))
        for s in report.samples:
            assert s.direction is not None
            assert sum(x * x for x in s.direction) == pytest.approx(1.0)


class TestMahlerTarget:
    def test_auto_univariate(self):
        assert mahler_target(t - 2).method == "jensen"

    def test_auto_multivariate(self):
        assert mahler_target(3 + t1 + t2).method == "lawton"

    def test_jensen_rejects_multivariate(self):
        with pytest.raises(ConfigError):
            mahler_target(3 + t1 + t2, method="jensen")


class TestGroupalgSuite:
    def test_all_pass(self):
        results = groupalg_identity_suite(cases=10, max_order=50, seed=0)
        assert len(results) == 40
        assert all(r["ok"] for r in results)

    def test_deterministic(self):
        a = groupalg_identity_suite(cases=4, seed=5)
        b = groupalg_identity_suite(cases=4, seed=5)
        assert a == b

    @pytest.mark.parametrize("max_order", [1, 0, -3])
    def test_rejects_max_order_below_two(self, max_order):
        # no random group has order below 2; the search would never end
        with pytest.raises(ValueError, match="max_order"):
            groupalg_identity_suite(cases=1, max_order=max_order)


class TestCli:
    def test_alexander(self, capsys, tmp_path, trefoil_text):
        p = tmp_path / "trefoil.txt"
        p.write_text(trefoil_text)
        assert cli_main(["alexander", "--presentation", str(p), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alexander"] == ["0", "t^2 - t + 1", "1"]
        assert out["delta"] == "t^2 - t + 1"

    def test_fox(self, capsys, tmp_path, fig8_text):
        p = tmp_path / "fig8.txt"
        p.write_text(fig8_text)
        assert cli_main(["fox", "--presentation", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ranks"] == [1, 2, 1]

    def test_branched(self, capsys, tmp_path, trefoil_text):
        p = tmp_path / "trefoil.txt"
        p.write_text(trefoil_text)
        assert cli_main(["branched", "--presentation", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["m0"] == 3 and len(out["matrix"]) == 2

    def test_torsion(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        assert cli_main(["torsion", "--matrix", str(p), "--cyclic", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"torsion_order": "7", "betti": 0}

    def test_mahler(self, capsys):
        assert cli_main(["mahler", "--poly", "t^2 - 3*t + 1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "jensen"
        assert abs(out["value"] - 0.9624236501) < 1e-8

    def test_mahler_rejects_dangling_sign(self, capsys):
        assert cli_main(["mahler", "--poly", "t + + 1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "sign without a term" in err["message"]

    def test_mahler_rejects_empty_factor(self, capsys):
        assert cli_main(["mahler", "--poly", "t**2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "empty factor" in err["message"]

    def test_mahler_quadrature(self, capsys):
        assert cli_main([
            "mahler", "--poly", "3 + t1 + t2", "--nvars", "2",
            "--method", "quadrature", "--samples", "50000", "--seed", "1",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - math.log(3)) < 0.02

    def test_growth(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict()))
        outdir = tmp_path / "results"
        assert cli_main(["growth", "--config", str(cfg), "--out", str(outdir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_gap"] < 0.01
        assert (outdir / "samples.csv").exists()
        assert (outdir / "report.json").exists()

    def test_groupalg_check(self, capsys):
        assert cli_main(["groupalg-check", "--cases", "5", "--max-order", "30"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_groupalg_check_rejects_max_order_one(self, capsys):
        assert cli_main(["groupalg-check", "--cases", "2", "--max-order", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "max_order" in err["message"]

    def test_error_is_machine_readable(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert cli_main(["torsion", "--matrix", str(missing), "--cyclic", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_torsion_runs_one_snf(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = torsion.snf_diagonal

        def counting(mat):
            calls.append(len(mat))
            return original(mat)

        monkeypatch.setattr(torsion, "snf_diagonal", counting)
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        assert cli_main(["torsion", "--matrix", str(p), "--cyclic", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"torsion_order": "15", "betti": 0}
        assert calls == [4]

    def test_torsion_diagonal_zero_reports_infinite_quotient(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps({"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}))
        assert cli_main(["torsion", "--matrix", str(p), "--diagonal", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "quotient is infinite" in err["message"]

    def test_growth_config_without_stop_is_json_error(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(sequence={"cyclic": {"start": 1}})))
        assert cli_main(["growth", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'stop'" in err["message"]

    def test_mahler_quadrature_zero_samples_is_json_error(self, capsys):
        assert cli_main([
            "mahler", "--poly", "3 + t1 + t2", "--nvars", "2",
            "--method", "quadrature", "--samples", "0",
        ]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_mahler_coefficient_beyond_float_range_is_json_error(self, capsys):
        assert cli_main(["mahler", "--poly", f"t^2 - {10 ** 400}*t + 1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "1329 bits" in err["message"]

    def test_mahler_lawton_on_univariate_is_jensen(self, capsys):
        assert cli_main(["mahler", "--poly", "t^2 - 3*t + 1", "--method", "lawton"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "jensen"

    def test_mahler_jensen_on_two_variables_is_json_error(self, capsys):
        assert cli_main([
            "mahler", "--poly", "3 + t1 + t2", "--nvars", "2", "--method", "jensen",
        ]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_torsion_needs_exactly_one_subgroup(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        assert cli_main(["torsion", "--matrix", str(p)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
