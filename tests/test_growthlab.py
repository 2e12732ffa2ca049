import json
import math
from decimal import Decimal

import pytest

from conftest import DATA, lucas
from torgrowth import growthlab, torsion
from torgrowth.cli import main as cli_main
from torgrowth.growthlab import (
    ConfigError,
    ExperimentConfig,
    SizeGuardExceeded,
    mahler_target,
    run,
)
from torgrowth.lattices import Subgroup
from torgrowth.laurent import poly_to_json, variables
from torgrowth.presmod import (
    alexander_module,
    branched_module,
    delta,
    parse_presentation,
    reduce_presentation,
)
from torgrowth.torsion import GrowthSample

t, = variables(1)
t1, t2 = variables(2)

T_MINUS_2 = {"nvars": 1, "matrix": [[poly_to_json(t - 2)]]}
THREE_T = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}


def config_dict(**overrides):
    base = {
        "module": dict(T_MINUS_2),
        "sequence": {"cyclic": {"start": 1, "stop": 12}},
        "mahler": {"method": "auto"},
        "seed": 0,
    }
    base.update(overrides)
    return base


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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

    def test_gamma_sj_sequence_toward_a_huge_kappa(self):
        # the squares of 1e308 overflow a float; the direction is still (1, ~0)
        cfg = config_dict(module=THREE_T,
                          sequence={"gamma_sj": {"kappa": [1e308, 1], "js": [1, 2]}})
        config = ExperimentConfig.from_dict(cfg)
        assert [(desc, gamma.index()) for desc, gamma in config.sequence] == [
            ("gamma_sj:s=1,k=[1, 1],j=1", 2), ("gamma_sj:s=2,k=[1, 2],j=2", 10)]

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

    @pytest.mark.parametrize("kind", ["cyclic", "diagonal"])
    def test_zero_step_is_config_error(self, kind):
        cfg = config_dict(sequence={kind: {"start": 1, "stop": 4, "step": 0}})
        if kind == "diagonal":
            cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        with pytest.raises(ConfigError, match="'step'"):
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

    @staticmethod
    def with_integer_field(field, value):
        """A valid config whose integer field `field` holds `value`."""
        if field in ("start", "stop", "step"):
            return config_dict(sequence={"cyclic": {"start": 1, "stop": 4, field: value}})
        if field == "ds":
            return config_dict(module=THREE_T, sequence={"diagonal": {"ds": [2, value]}})
        if field in ("js", "s_start"):
            spec = {"kappa": [0.6, 0.8], "js": [1, 2], "s_start": 1}
            spec[field] = [1, value] if field == "js" else value
            return config_dict(module=THREE_T, sequence={"gamma_sj": spec})
        if field in ("samples", "schedule"):
            value = [[1, value]] if field == "schedule" else value
            return config_dict(module=THREE_T, sequence={"diagonal": {"ds": [2]}},
                               mahler={field: value})
        return config_dict(**{field: value})

    @pytest.mark.parametrize("value", [2.5, "2", True], ids=["float", "string", "boolean"])
    @pytest.mark.parametrize("field", ["start", "stop", "step", "ds", "js", "s_start", "seed",
                                       "jobs", "samples", "schedule"])
    def test_integer_field_takes_only_a_json_integer(self, field, value):
        ExperimentConfig.from_dict(self.with_integer_field(field, 2))
        with pytest.raises(ConfigError, match=f"^'{field}' must be"):
            ExperimentConfig.from_dict(self.with_integer_field(field, value))

    def test_file_overrides_replace_its_fields_and_are_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(seed=3, jobs=2, force=False)))
        config = ExperimentConfig.from_file(path, {"seed": 7, "jobs": 1, "force": True})
        assert (config.seed, config.jobs, config.force) == (7, 1, True)
        assert ExperimentConfig.from_file(path).seed == 3
        with pytest.raises(ConfigError, match="'seed'"):
            ExperimentConfig.from_file(path, {"seed": 1.5})


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
        # 2t - 3 has no unit end coefficient, so it takes the Fourier route,
        # which the guard refuses as it refuses the SNF route
        cfg = config_dict()
        cfg["module"] = {"nvars": 1, "matrix": [[poly_to_json(2 * t - 3)]]}
        cfg["sequence"] = {"cyclic": {"start": 5100, "stop": 5100}}
        with pytest.raises(SizeGuardExceeded):
            run(ExperimentConfig.from_dict(cfg))
        cfg["force"] = True
        config = ExperimentConfig.from_dict(cfg)
        assert config.force

    def test_size_guard_is_decided_per_sample(self, tmp_path):
        # Gamma_{s,j} with k = (9, 8) and j = 100 has cyclic quotient Z/14500,
        # so 1 + t1 + t2 takes the companion route and needs no force; the
        # diagonal d*Z^2 at d = 80 has quotient (Z/80)^2 and still does
        one_t = {"nvars": 2, "matrix": [[poly_to_json(1 + t1 + t2)]]}
        cfg = config_dict(module=one_t, sequence={"gamma_sj": {
            "kappa": [0.6, 0.8], "js": [100], "s_start": 12}})
        report = run(ExperimentConfig.from_dict(cfg), out_dir=tmp_path)
        [sample] = report.samples
        assert sample.gamma == "gamma_sj:s=12,k=[9, 8],j=100"
        assert (sample.index, sample.betti) == (14500, 0)
        three_t = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg = config_dict(module=three_t, sequence={"diagonal": {"ds": [80]}})
        with pytest.raises(SizeGuardExceeded, match="6400 exceeds 5000 on the fourier route"):
            run(ExperimentConfig.from_dict(cfg))

    def test_size_guard_enumerates_no_character(self, monkeypatch):
        # route decides from the presentation and the lattice, so refusing a
        # Fourier sample builds neither A's elements nor its characters:
        # 3 + t1 + t2 over (Z/2500)^2, and 2 + 3 t1 + 2 t2 on Z/14500, whose
        # specialisation has no end coefficient ±1
        def refuse(group):
            raise AssertionError("the size guard enumerated the characters of A")

        monkeypatch.setattr(torsion, "character_exponents", refuse)
        for f, sequence in ((3 + t1 + t2, {"diagonal": {"ds": [2500]}}),
                            (2 + 3 * t1 + 2 * t2, {"gamma_sj": {
                                "kappa": [0.6, 0.8], "js": [100], "s_start": 12}})):
            module = {"nvars": 2, "matrix": [[poly_to_json(f)]]}
            cfg = config_dict(module=module, sequence=sequence)
            with pytest.raises(SizeGuardExceeded, match="on the fourier route"):
                run(ExperimentConfig.from_dict(cfg))

    def test_size_guard_skips_the_companion_route(self, tmp_path, fig8_text):
        # the reduced branched presentation takes the companion route, which
        # expands nothing, so no |A| needs force
        (tmp_path / "fig8.txt").write_text(fig8_text)
        cfg = {
            "module": {"presentation": "fig8.txt", "branched": True},
            "sequence": {"cyclic": {"start": 20000, "stop": 20000}},
        }
        out = tmp_path / "out"
        run(ExperimentConfig.from_dict(cfg, tmp_path), out_dir=out)
        want = lucas(40000) - 2
        sample = json.loads((out / "report.json").read_text())["samples"][0]
        assert int(Decimal(sample["torsion_order"])) == want
        assert sample["betti"] == 20000
        row = (out / "samples.csv").read_text().splitlines()[1]
        assert GrowthSample.from_csv_row(row).torsion_order == want

    def test_size_guard_counts_live_columns_only(self, monkeypatch):
        # 2t - 3 takes the SNF route; the zero column expands nothing, so
        # l = 6 passes a guard of 10 although m0 * l = 12, and l = 11 does not
        monkeypatch.setattr(growthlab, "SIZE_GUARD", 10)
        module = {"nvars": 1, "matrix": [[poly_to_json(2 * t - 3), []]]}
        cfg = config_dict(module=module, sequence={"cyclic": {"start": 6, "stop": 6}})
        [sample] = run(ExperimentConfig.from_dict(cfg)).samples
        assert sample.betti == 6
        cfg["sequence"] = {"cyclic": {"start": 11, "stop": 11}}
        with pytest.raises(SizeGuardExceeded, match="11 exceeds 10 on the snf route"):
            run(ExperimentConfig.from_dict(cfg))

    def test_parallel_matches_serial(self):
        # jobs=1 runs in process without the JSON round trip the pool needs;
        # both must write the same report apart from the timings
        cfg = config_dict()
        cfg["module"] = {"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}
        cfg["sequence"] = {"diagonal": {"ds": [3, 1, 2, 4]}}
        reports = []
        for jobs in (1, 2):
            blob = run(ExperimentConfig.from_dict(dict(cfg, jobs=jobs))).to_json_dict()
            del blob["metadata"]["timings"]
            reports.append(json.dumps(blob, sort_keys=True))
        assert reports[0] == reports[1]

    def test_pool_has_no_more_workers_than_samples(self, monkeypatch):
        # the pool forks every worker at its first submit, so jobs 64 over
        # three subgroups must ask for three; the stub maps on one thread
        import concurrent.futures

        workers = []

        class SerialPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = config_dict(module=dict(THREE_T), sequence={"diagonal": {"ds": [2, 3, 4]}})
        reports = []
        for jobs in (1, 64):
            blob = run(ExperimentConfig.from_dict(dict(cfg, jobs=jobs))).to_json_dict()
            del blob["metadata"]["timings"]
            reports.append(json.dumps(blob, sort_keys=True))
        assert workers == [3]
        assert reports[0] == reports[1]

    def test_module_is_reduced_once_per_run(self, monkeypatch):
        from torgrowth import presmod

        calls = []
        original = presmod.eliminate_units
        monkeypatch.setattr(presmod, "eliminate_units",
                            lambda rows, inverse: calls.append(1) or original(rows, inverse))
        counts = []
        for stop in (6, 12):
            cfg = config_dict(module={"presentation": "fig8.txt", "branched": True},
                              sequence={"cyclic": {"start": 2, "stop": stop}}, jobs=1)
            calls.clear()
            report = run(ExperimentConfig.from_dict(cfg, DATA))
            assert len(report.samples) == stop - 1
            counts.append(len(calls))
        assert counts == [1, 1]

    @pytest.mark.parametrize("module, sequence", [
        ({"presentation": "fig8.txt", "branched": True}, {"cyclic": {"start": 2, "stop": 6}}),
        ({"presentation": "trefoil.txt", "branched": True}, {"cyclic": {"start": 2, "stop": 6}}),
        ({"presentation": "link_12_5.txt"}, {"diagonal": {"ds": [2, 3]}}),
        ({"presentation": "hopf.txt", "branched": True}, {"diagonal": {"ds": [2, 3]}}),
    ])
    def test_report_delta_is_that_of_the_raw_module(self, tmp_path, module, sequence):
        config = ExperimentConfig.from_dict(config_dict(module=module, sequence=sequence), DATA)
        run(config, out_dir=tmp_path)
        blob = json.loads((tmp_path / "report.json").read_text())
        want = delta(config.module)  # the minors of the raw presentation
        assert blob["delta"] == {"nvars": want.nvars, "poly": poly_to_json(want)}

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
        assert mahler_target(3 + t1 + t2).method == "boyd"

    def test_auto_with_a_schedule_is_lawton(self):
        est = mahler_target(3 + t1 + t2, schedule=((1, 8), (1, 16)))
        assert est.method == "lawton" and est.diagnostics["schedule"] == [[1, 8], [1, 16]]

    def test_jensen_rejects_multivariate(self):
        with pytest.raises(ConfigError):
            mahler_target(3 + t1 + t2, method="jensen")

    @pytest.mark.parametrize("method, one, two", [
        ("auto", "jensen", "boyd"),
        ("jensen", "jensen", None),
        ("lawton", "jensen", "lawton"),
        ("quadrature", "quadrature", "quadrature"),
    ])
    def test_every_method_in_one_and_two_variables(self, method, one, two):
        assert mahler_target(t - 2, method, samples=1000).method == one
        if two is None:
            with pytest.raises(ConfigError):
                mahler_target(3 + t1 + t2, method, samples=1000)
        else:
            assert mahler_target(3 + t1 + t2, method, samples=1000).method == two


class TestCli:
    def test_alexander(self, capsys, tmp_path, trefoil_text):
        p = tmp_path / "trefoil.txt"
        p.write_text(trefoil_text)
        assert cli_main(["alexander", "--presentation", str(p), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alexander"] == ["0", "t^2 - t + 1", "1"]
        assert out["delta"] == "t^2 - t + 1"

    def test_alexander_text(self, capsys):
        assert cli_main(["alexander", "--presentation", str(DATA / "trefoil.txt")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rank = 1",
            "Delta_0 = 0",
            "Delta_1 = t^2 - t + 1",
            "Delta_2 = 1",
            "Delta(M) = t^2 - t + 1",
            "note: indices follow the relation-module convention; the homological "
            "numbering of the covering space is shifted down by one",
        ]

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

    @pytest.mark.parametrize("extra", [[], ["--method", "quadrature", "--samples", "1"]])
    def test_mahler_unbounded_error_is_strict_json_null(self, capsys, extra):
        assert cli_main(["mahler", "--poly", "1+t1+t2", "--nvars", "2",
                         "--schedule", "[[1,0]]"] + extra) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert out["error_bound"] is None

    def test_growth_report_is_strict_json(self, capsys, tmp_path):
        # a one-entry Lawton schedule in two variables bounds nothing
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(
            module={"nvars": 2, "matrix": [[poly_to_json(1 + t1 + t2)]]},
            sequence={"diagonal": {"ds": [2]}},
            mahler={"method": "lawton", "schedule": [[1, 8]]})))
        outdir = tmp_path / "out"
        assert cli_main(["growth", "--config", str(cfg), "--out", str(outdir)]) == 0
        summary = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        report = json.loads((outdir / "report.json").read_text(), parse_constant=_refuse_constant)
        assert summary["target"]["error_bound"] is None
        assert report["target"]["error_bound"] is None

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

    def test_growth_flags_replace_the_config_fields(self, capsys, tmp_path, monkeypatch):
        # 2t - 3 takes the SNF route, so a guard below |A| refuses it unless
        # forced; the file's jobs 2 would start a pool, which is stubbed out
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("the file's jobs won over --jobs 1")

        monkeypatch.setattr(growthlab, "SIZE_GUARD", 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        module = {"nvars": 1, "matrix": [[poly_to_json(2 * t - 3)]]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(
            module=module, sequence={"cyclic": {"start": 2, "stop": 4}},
            seed=3, jobs=2, force=False)))
        argv = ["growth", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SizeGuardExceeded"
        assert cli_main(argv + ["--seed", "7", "--jobs", "1", "--force"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metadata"]["seed"] == 7

    @pytest.mark.parametrize("argv, message", [
        (["torsion", "--presentation", str(DATA / "fig8.txt"), "--cyclic", "2.5"],
         "invalid int value: '2.5'"),
        (["mahler", "--poly", "t-2", "--method", "foo"], "invalid choice: 'foo'"),
        (["growth"], "required: --config"),
        ([], "required: command"),
        (["groupalg-check"], "invalid choice: 'groupalg-check'"),
        (["torsion", "--presentation", str(DATA / "fig8.txt")],
         "one of the arguments --cyclic --diagonal --gamma is required"),
        (["torsion", "--presentation", str(DATA / "fig8.txt"), "--cyclic", "3", "--diagonal", "2"],
         "argument --diagonal: not allowed with argument --cyclic"),
    ], ids=["non-integer-flag", "unknown-choice", "missing-flag", "no-subcommand",
            "removed-subcommand", "no-subgroup", "two-subgroups"])
    def test_usage_error_is_json_error(self, capsys, argv, message):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and message in err["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["torsion", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: growthlab")

    def test_torsion_cyclic_on_two_variables_is_json_error(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps({"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}))
        assert cli_main(["torsion", "--matrix", str(p), "--cyclic", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": "--cyclic needs a one-variable module"}

    @pytest.mark.parametrize("schedule", ["5", "[5]", "[[1, 2], 3]", '["18", "19"]',
                                          "[[1, 2.0]]", "[[1, true]]"])
    def test_mahler_malformed_schedule_is_json_error(self, capsys, schedule):
        assert cli_main(["mahler", "--poly", "1 + t1 + t2", "--nvars", "2",
                         "--schedule", schedule]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "'schedule'" in err["message"]

    def test_mahler_schedule_is_read_as_integer_vectors(self, capsys):
        # lawton: auto in two variables is Boyd's integral, which has no schedule
        args = ["mahler", "--poly", "1 + t1 + t2", "--nvars", "2", "--method", "lawton"]
        assert cli_main(args) == 0
        default = json.loads(capsys.readouterr().out)
        schedule = json.dumps(default["diagnostics"]["schedule"])
        assert cli_main(args + ["--schedule", schedule]) == 0
        assert json.loads(capsys.readouterr().out) == default

    def test_error_is_machine_readable(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert cli_main(["torsion", "--matrix", str(missing), "--cyclic", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    @pytest.mark.parametrize("spec, gamma, nvars, dim", [
        ({"presentation": str(DATA / "fig8.txt"), "branched": True}, [[2, 0], [0, 3]], 1, 2),
        ({"nvars": 1, "matrix": [[poly_to_json(t ** 2 - 3 * t + 1)]]}, [[2, 0], [0, 3]], 1, 2),
        (THREE_T, [[5]], 2, 1),
    ], ids=["fig8-branched", "one-variable", "two-variable"])
    def test_torsion_gamma_of_another_dimension_is_json_error(self, capsys, tmp_path, spec, gamma,
                                                              nvars, dim):
        # a Gamma outside Z^nvars gave a believable order (320 for the first
        # two) or a message about the specialization vector k
        message = f"the module has nvars = {nvars} but Gamma lies in Z^{dim}"
        with pytest.raises(ValueError) as exc:
            torsion.torsion_and_betti(growthlab.load_module(spec)[0], Subgroup.from_json(gamma))
        assert str(exc.value) == message
        if "presentation" in spec:
            args = ["--presentation", spec["presentation"], "--branched"]
        else:
            (p := tmp_path / "mod.json").write_text(json.dumps(spec))
            args = ["--matrix", str(p)]
        assert cli_main(["torsion", *args, "--gamma", json.dumps(gamma)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    def test_torsion_gamma_lists_generators(self, capsys, tmp_path):
        # each inner list is a generator: Gamma = <(1, 1), (0, 2)> has
        # characters t1 = t2 = ±1, so 3+t1+t2 gives 5 * 1; read as columns,
        # Gamma = <(1, 0), (1, 2)> has t1 = 1, t2 = ±1 and would give 5 * 3
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(THREE_T))
        assert cli_main(["torsion", "--matrix", str(p), "--gamma", "[[1, 1], [0, 2]]"]) == 0
        assert json.loads(capsys.readouterr().out) == {"torsion_order": "5", "betti": 0}

    def test_torsion_runs_one_snf(self, capsys, tmp_path, snf_calls):
        # 2t - 3 has no unit end coefficient, so it takes the SNF route:
        # |(2 - 3)(-2 - 3)(2i - 3)(-2i - 3)| = 65
        p = tmp_path / "mod.json"
        p.write_text(json.dumps({"nvars": 1, "matrix": [[poly_to_json(2 * t - 3)]]}))
        assert cli_main(["torsion", "--matrix", str(p), "--cyclic", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"torsion_order": "65", "betti": 0}
        assert snf_calls == [4]

    def test_torsion_reduces_branched_presentation(self, capsys, fig8_text, tmp_path, snf_calls):
        # the 2 x 3 branched presentation reduces to one row over one live
        # column; its entry t^2 - 3t + 1 takes the companion route, not SNF
        red = reduce_presentation(branched_module(alexander_module(parse_presentation(fig8_text)), 1))
        assert red.m1 == 1 and sum(1 for e in red.matrix[0] if e) == 1
        p = tmp_path / "fig8.txt"
        p.write_text(fig8_text)
        assert cli_main(["torsion", "--presentation", str(p), "--branched", "--cyclic", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == {"torsion_order": "121", "betti": 5}
        assert snf_calls == []

    def test_torsion_prints_an_order_past_the_digit_limit(self, capsys, fig8_text, tmp_path):
        p = tmp_path / "fig8.txt"
        p.write_text(fig8_text)
        assert cli_main(["torsion", "--presentation", str(p), "--branched", "--cyclic", "20000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert int(Decimal(out["torsion_order"])) == lucas(40000) - 2

    def test_torsion_diagonal_zero_reports_infinite_quotient(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps({"nvars": 2, "matrix": [[poly_to_json(3 + t1 + t2)]]}))
        assert cli_main(["torsion", "--matrix", str(p), "--diagonal", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "quotient is infinite" in err["message"]

    @pytest.mark.parametrize("args", [
        ["--presentation", str(DATA / "fig8.txt"), "--branched", "--cyclic", "-5"],
        ["--presentation", str(DATA / "hopf.txt"), "--diagonal", "-2"],
    ])
    def test_torsion_negative_subgroup_size_is_json_error(self, capsys, args):
        # -5*Z = 5*Z, so keeping the sign would answer for the size 5
        assert cli_main(["torsion"] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and ">= 0" in err["message"]

    def test_growth_config_without_stop_is_json_error(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(sequence={"cyclic": {"start": 1}})))
        assert cli_main(["growth", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'stop'" in err["message"]

    @pytest.mark.parametrize("config, message", [
        ([], "JSON object"),
        (config_dict(mahler=[]), "'mahler'"),
        (config_dict(mahler={"schedule": 5}), "'schedule'"),
        (config_dict(mahler={"schedule": [5]}), "'schedule'"),
        (config_dict(sequence={"diagonal": {"ds": 5}}), "'ds'"),
        (config_dict(sequence={"diagonal": {"ds": [None]}}), "'ds'"),
        (config_dict(sequence={"gamma_sj": {"kappa": 1, "js": [1]}}), "'kappa'"),
        (config_dict(sequence={"gamma_sj": {"kappa": [1], "js": 2}}), "'js'"),
        (config_dict(mahler={"schedule": [[1, 2], 3]}), "'schedule'"),
        (config_dict(mahler={"schedule": ["18", "19"]}), "'schedule'"),
    ])
    def test_growth_config_shape_is_json_error(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert cli_main(["growth", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and message in err["message"]

    @pytest.mark.parametrize("config, error, field", [
        (config_dict(seed=[1]), "ConfigError", "'seed'"),
        (config_dict(jobs="two"), "ConfigError", "'jobs'"),
        (config_dict(sequence={"cyclic": {"stop": 4, "step": [1]}}), "ConfigError", "'step'"),
        (config_dict(sequence={"cyclic": {"start": {}, "stop": 4}}), "ConfigError", "'start'"),
        (config_dict(sequence={"diagonal": {"stop": None}}), "ConfigError", "'stop'"),
        (config_dict(sequence={"gamma_sj": {"kappa": [1], "js": [1], "s_start": [2]}}),
         "ConfigError", "'s_start'"),
        (config_dict(mahler={"samples": "many"}), "ConfigError", "'samples'"),
        (config_dict(module=dict(T_MINUS_2, m0=[])), "ValueError", "'m0'"),
        (config_dict(force="false"), "ConfigError", "'force'"),
        (config_dict(force=0), "ConfigError", "'force'"),
        (config_dict(module=dict(T_MINUS_2, branched="no")), "ConfigError", "'branched'"),
        (config_dict(module={"presentation": "fig8.txt", "branched": "no"}), "ConfigError",
         "'branched'"),
        # a range runs from start up to stop, so sizes and steps below 1 are refused
        (config_dict(sequence={"cyclic": {"start": 6, "stop": 2, "step": -1}}), "ConfigError",
         "'step'"),
        (config_dict(sequence={"cyclic": {"start": -4, "stop": -1}}), "ConfigError", "'start'"),
        (config_dict(sequence={"cyclic": {"start": 1, "stop": -3}}), "ConfigError", "'stop'"),
        (config_dict(sequence={"diagonal": {"start": 4, "stop": 2, "step": -2}}), "ConfigError",
         "'step'"),
        (config_dict(sequence={"diagonal": {"ds": [2, -2]}}), "ConfigError", "'ds'"),
        # an integer field takes a JSON integer: 2.7 and "3" are not cast
        (config_dict(module=THREE_T, sequence={"diagonal": {"ds": [2.7, "3"]}}), "ConfigError",
         "'ds'"),
        (config_dict(sequence={"cyclic": {"start": 1.9, "stop": 4}}), "ConfigError", "'start'"),
        (config_dict(mahler={"samples": 1e6}), "ConfigError", "'samples'"),
        # numpy refuses a negative seed without naming the field; no pool has 0 workers
        (config_dict(seed=-1, mahler={"method": "quadrature", "samples": 100}), "ConfigError",
         "'seed'"),
        (config_dict(jobs=0), "ConfigError", "'jobs'"),
        # "m0": 2.7 or "2" read as 2 made a free module of rank 2
        (config_dict(module={"nvars": 1, "matrix": [], "m0": 2.7}), "ValueError", "'m0'"),
        (config_dict(module={"nvars": 1, "matrix": [], "m0": "2"}), "ValueError", "'m0'"),
        # samples, j and s below 1 are refused by field name, before Delta or any subgroup
        (config_dict(mahler={"samples": -7}), "ConfigError", "'samples'"),
        (config_dict(module=THREE_T, sequence={"diagonal": {"ds": [2]}},
                     mahler={"method": "quadrature", "samples": 0}), "ConfigError", "'samples'"),
        (config_dict(module=THREE_T, sequence={"gamma_sj": {"kappa": [0.6, 0.8], "js": [0]}}),
         "ConfigError", "'js'"),
        (config_dict(module=THREE_T,
                     sequence={"gamma_sj": {"kappa": [0.6, 0.8], "js": [1], "s_start": 0}}),
         "ConfigError", "'s_start'"),
        # json reads NaN and Infinity; a non-finite kappa had run as a boundary
        # direction, and an integer past the float range had raised OverflowError
        *[(config_dict(module=THREE_T, sequence={"gamma_sj": {"kappa": [x, 1], "js": [1, 2]}}),
           "ConfigError", "'kappa' must be a list of finite numbers")
          for x in (math.nan, math.inf, 10 ** 400)],
    ])
    def test_growth_config_scalar_field_is_json_error(self, capsys, tmp_path, config, error,
                                                      field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert cli_main(["growth", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == error and field in err["message"]

    @pytest.mark.parametrize("source", ["config", "matrix"])
    @pytest.mark.parametrize("path", [5, None, ["fig8.txt"]])
    def test_non_string_presentation_is_json_error(self, capsys, tmp_path, source, path):
        module = {"presentation": path}
        if source == "config":
            (tmp_path / "c.json").write_text(json.dumps(config_dict(module=module)))
            argv = ["growth", "--config", str(tmp_path / "c.json")]
        else:
            (tmp_path / "m.json").write_text(json.dumps(module))
            argv = ["torsion", "--matrix", str(tmp_path / "m.json"), "--cyclic", "3"]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "'presentation'" in err["message"]

    def test_mahler_json_poly_sums_repeated_exponents(self, capsys):
        assert cli_main(["mahler", "--poly", '[[[1], "2"], [[1], "3"], [[0], "1"]]']) == 0
        from_json = json.loads(capsys.readouterr().out)
        assert cli_main(["mahler", "--poly", "2*t + 3*t + 1"]) == 0
        assert from_json == json.loads(capsys.readouterr().out)
        assert from_json["value"] == pytest.approx(math.log(5))

    @pytest.mark.parametrize("args", [
        ["mahler", "--poly", "[[1]]"],
        ["mahler", "--poly", "[1]"],
        ["mahler", "--poly", '[[[1], "1"], [[0, 1], "2"]]'],
        ["mahler", "--poly", '[[[1], "1"], [[0], null]]'],
        ["mahler", "--poly", "[]"],
        ["torsion", "--matrix", "{dir}/m.json", "--cyclic", "3"],
        ["growth", "--config", "{dir}/c.json"],
    ])
    def test_malformed_polynomial_json_is_value_error(self, capsys, tmp_path, args):
        bad = {"nvars": 1, "matrix": [[1]]}
        (tmp_path / "m.json").write_text(json.dumps(bad))
        (tmp_path / "c.json").write_text(json.dumps(config_dict(module=bad)))
        assert cli_main([a.format(dir=tmp_path) for a in args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"

    def test_mahler_quadrature_zero_samples_is_json_error(self, capsys):
        assert cli_main([
            "mahler", "--poly", "3 + t1 + t2", "--nvars", "2",
            "--method", "quadrature", "--samples", "0",
        ]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("args, field", [
        # the count had been ignored outside quadrature, and numpy had refused
        # the negative seed without naming the flag
        (["--poly", "t-2", "--samples", "-7"], "'samples'"),
        (["--poly", "3+t1+t2", "--method", "quadrature", "--samples", "100", "--seed", "-1"],
         "'seed'"),
    ])
    def test_mahler_flags_take_the_config_bounds(self, capsys, args, field):
        assert cli_main(["mahler", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and field in err["message"]

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

    def test_torsion_needs_a_module_source(self, capsys):
        assert cli_main(["torsion", "--cyclic", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "exactly one source" in err["message"]

    def test_torsion_branched_matrix_is_config_error(self, capsys, tmp_path):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        assert cli_main(["torsion", "--matrix", str(p), "--branched", "--cyclic", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "presentation source" in err["message"]

    def test_torsion_rejects_two_module_sources(self, capsys, tmp_path, fig8_text):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        q = tmp_path / "fig8.txt"
        q.write_text(fig8_text)
        assert cli_main(["torsion", "--matrix", str(p), "--presentation", str(q),
                         "--cyclic", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "exactly one source" in err["message"]

    @pytest.mark.parametrize("gamma", ["[1]", "[[1], 2]", '[["a"]]', "5", "[[null]]", "[[true]]"])
    def test_torsion_malformed_gamma_is_json_error(self, capsys, tmp_path, gamma):
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(T_MINUS_2))
        assert cli_main(["torsion", "--matrix", str(p), "--gamma", gamma]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "integer lists" in err["message"]
