import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from frsel import Dataset, SynthSpec, load_csv, save_csv, synth_clusters
from frsel import cli
from frsel.cli import main
from golden.make_golden import GOLDEN_DIR

# Modules a select never needs; a fresh interpreter shows which it loads.
LEAN_MODULES = ("numpy.ma", "concurrent.futures", "statistics", "multiprocessing")

FAST_MA = [
    "--ma.np=6", "--ma.g_max=3", "--ma.ts_iters=4", "--ma.tl=3",
    "--ma.init_neighbors=2",
]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    spec = SynthSpec(n_informative=2, n_noise=3, samples_per_class=20,
                     cluster_separation=8.0)
    path = tmp_path_factory.mktemp("data") / "small.csv"
    save_csv(synth_clusters(spec, seed=0), path)
    return str(path)


@pytest.fixture(scope="module")
def named_csv(tmp_path_factory):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(24, 4))
    samples[:12, 0] += 6.0
    labels = np.array([1] * 12 + [-1] * 12)
    ds = Dataset(samples, labels, ("Tz1", "Tz2", "Tz3", "Tz4"))
    path = tmp_path_factory.mktemp("data") / "named.csv"
    save_csv(ds, path)
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    spec = SynthSpec(n_informative=3, n_noise=22, samples_per_class=10)
    path = tmp_path_factory.mktemp("data") / "wide.csv"
    save_csv(synth_clusters(spec, seed=0), path)
    return str(path)


class TestSelect:
    def test_writes_consistent_outputs(self, small_csv, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["select", "--data", small_csv, "--out", str(out), *FAST_MA])
        assert rc == 0
        assert "wrote selection.json" in capsys.readouterr().out
        selection = json.loads((out / "selection.json").read_text())
        assert set(selection) == {
            "features", "mask_hex", "dimension", "best_fitness",
            "terminated_by", "total_evaluations", "seed",
        }
        assert selection["dimension"] == len(selection["features"])
        assert selection["seed"] == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["eta"] <= 1.0
        assert metrics["dimension"] == selection["dimension"]
        lines = (out / "runlog.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["g"] for r in records] == list(range(1, len(records) + 1))
        assert all("elapsed_ms" not in r for r in records)

    def test_identical_runs_identical_bytes(self, small_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["select", "--data", small_csv, "--out", str(out_a), *FAST_MA]) == 0
        assert main(["select", "--data", small_csv, "--out", str(out_b), *FAST_MA]) == 0
        for name in ("selection.json", "runlog.jsonl", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_flag_reaches_output(self, small_csv, tmp_path):
        out = tmp_path / "seeded"
        rc = main(["select", "--data", small_csv, "--out", str(out),
                   "--seed", "7", *FAST_MA])
        assert rc == 0
        assert json.loads((out / "selection.json").read_text())["seed"] == 7

    def test_missing_data_flag(self, capsys):
        rc = main(["select"])
        assert rc == 1
        assert "no input file" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        gone = str(tmp_path / "gone.csv")
        rc = main(["select", "--data", gone])
        assert rc == 1
        assert gone in capsys.readouterr().err

    def test_label_only_file(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "1\n-1\n" * 4)
        for command in ("select", "oracle"):
            rc = main([command, "--data", str(path), "--out", str(tmp_path / "run")])
            assert rc == 1
            assert "no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestConfigHandling:
    def test_file_then_flag_precedence(self, small_csv, tmp_path):
        # train_fraction is observable through the confusion-matrix total
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train_fraction": 0.5,
                                        "evaluate.mask": "1f"}))
        out_file = tmp_path / "from_file"
        rc = main(["evaluate", "--data", small_csv, "--config", str(cfg_path),
                   "--out", str(out_file)])
        assert rc == 0
        m = json.loads((out_file / "metrics.json").read_text())
        assert sum(map(sum, m["confusion"]["counts"])) == 20
        out_flag = tmp_path / "from_flag"
        rc = main(["evaluate", "--data", small_csv, "--config", str(cfg_path),
                   "--out", str(out_flag), "--train_fraction=0.75"])
        assert rc == 0
        m = json.loads((out_flag / "metrics.json").read_text())
        assert sum(map(sum, m["confusion"]["counts"])) == 10

    def test_unknown_key_in_file(self, small_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ma.popsize": 10}))
        rc = main(["select", "--data", small_csv, "--config", str(cfg_path)])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_flag(self, small_csv, capsys):
        rc = main(["select", "--data", small_csv, "--ma.popsize=10"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_literals(self, small_csv, capsys):
        assert main(["select", "--data", small_csv, "--ma.np=many"]) == 1
        assert "not an integer" in capsys.readouterr().err
        assert main(["select", "--data", small_csv,
                     "--kernel.per_feature_normalization=maybe"]) == 1
        assert "not a boolean" in capsys.readouterr().err
        assert main(["select", "--data", small_csv, "--workers=-2"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_negative_seed(self, small_csv, tmp_path, capsys):
        assert main(["synth", "--seed=-1", "--out", str(tmp_path / "synth")]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -3}))
        rc = main(["select", "--data", small_csv, "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists() and not (tmp_path / "run").exists()

    def test_non_finite_floats_rejected(self, small_csv, tmp_path, capsys):
        for command, flag, message in (
            ("select", "--ma.f_max=inf", "f_max <= 1"),
            ("select", "--kernel.delta=inf", "delta must be positive and finite"),
            ("synth", "--synth.noise_std=nan", "noise_std must be non-negative and finite"),
            ("synth", "--synth.cluster_separation=inf", "cluster_separation must be"),
        ):
            rc = main([command, "--data", small_csv, "--out", str(tmp_path / "run"), flag])
            assert rc == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_evaluate_k_rejected_before_the_search(self, small_csv, tmp_path, capsys,
                                                   monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before evaluate.k was checked")

        monkeypatch.setattr(cli, "run_ma", no_search)
        for k in ("0", "-3"):
            rc = main(["select", "--data", small_csv, "--out", str(tmp_path / "run"),
                       f"--evaluate.k={k}"])
            assert rc == 1
            err = capsys.readouterr().err
            assert "evaluate.k must be at least 1" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_bool_words(self, small_csv, tmp_path):
        out = tmp_path / "nonorm"
        rc = main(["select", "--data", small_csv, "--out", str(out),
                   "--kernel.per_feature_normalization=off", *FAST_MA])
        assert rc == 0
        assert (out / "selection.json").exists()


    def test_null_only_for_nullable_keys(self, small_csv, tmp_path, capsys):
        for key in ("seed", "ma.np"):
            cfg_path = tmp_path / "null.json"
            cfg_path.write_text(json.dumps({key: None}))
            rc = main(["select", "--data", small_csv, "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), *FAST_MA])
            assert rc == 1
            assert f"config key {key!r} cannot be null" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        cfg_path.write_text(json.dumps({"data": None, "evaluate.mask": None}))
        rc = main(["evaluate", "--data", small_csv, "--config", str(cfg_path)])
        assert rc == 1
        assert "no mask given" in capsys.readouterr().err


class TestAtomicWrite:
    def test_mode_follows_umask(self, tmp_path):
        # the same mode as a plain open(path, "w"): 0o666 less the umask
        old = os.umask(0o022)
        try:
            cli.atomic_write_text(tmp_path / "out" / "a.json", "{}\n")
            with open(tmp_path / "plain.json", "w") as fh:
                fh.write("{}\n")
            os.umask(0o077)
            cli.atomic_write_text(tmp_path / "out" / "b.json", "{}\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out" / "a.json").stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "plain.json").stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "out" / "b.json").stat().st_mode) == 0o600
        assert (tmp_path / "out" / "a.json").read_text() == "{}\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.json", "b.json"]

    def test_failed_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            cli.atomic_write_text(tmp_path / "c.json", None)
        assert list(tmp_path.iterdir()) == []


class TestNamespace:
    def test_keys(self):
        assert set(cli.DEFAULTS) == {
            "data", "train_fraction", "seed", "out", "workers",
            "kernel.delta", "kernel.per_feature_normalization", "kernel.n_k",
            "ma.np", "ma.g_max", "ma.f_min", "ma.f_max", "ma.cr_min",
            "ma.cr_max", "ma.tl", "ma.ts_iters", "ma.fitness_stop",
            "ma.init_neighbors",
            "baselines.kinds", "baselines.np", "baselines.g_max",
            "baselines.fitness_stop",
            "compare.runs", "compare.certify", "oracle.max_n",
            "evaluate.mask", "evaluate.k",
            "synth.n_informative", "synth.n_noise", "synth.samples_per_class",
            "synth.cluster_separation", "synth.noise_std",
        }

    def test_subcommand_help_names_the_common_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["select", "--help"])
        out = capsys.readouterr().out
        for flag in ("--data", "--config", "--seed", "--out", "--workers"):
            assert flag in out

    @pytest.mark.parametrize("flag", ["--ma.seed=1", "--baselines.kind=GA",
                                      "--ma.elite_count=1", "--baselines.pso_c1=2",
                                      "--dat=x", "--conf=x"])
    def test_per_run_fields_are_not_keys(self, small_csv, flag, capsys):
        assert main(["select", "--data", small_csv, flag]) == 1
        assert "unknown config key" in capsys.readouterr().err


class TestSynth:
    def test_writes_csv(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path),
                   "--synth.samples_per_class=100"])
        assert rc == 0
        assert "200 rows x 10 features" in capsys.readouterr().out
        ds = load_csv(tmp_path / "synth.csv")
        assert ds.n_samples == 200
        assert ds.n_features == 10
        text = (tmp_path / "synth.csv").read_text()
        assert text.splitlines()[0].count(",") == 10  # 10 features + label

    def test_reproduces_golden_bytes(self, tmp_path):
        assert main(["synth", "--seed", "0", "--out", str(tmp_path)]) == 0
        golden = GOLDEN_DIR / "synth10" / "data.csv"
        assert (tmp_path / "synth.csv").read_bytes() == golden.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["synth.csv"]

    def test_roundtrip_through_select(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path),
                     "--synth.samples_per_class=15",
                     "--synth.n_noise=3", "--synth.n_informative=2"]) == 0
        out = tmp_path / "sel"
        rc = main(["select", "--data", str(tmp_path / "synth.csv"),
                   "--out", str(out), *FAST_MA])
        assert rc == 0


class TestOracle:
    def test_small_problem(self, small_csv, tmp_path):
        rc = main(["oracle", "--data", small_csv, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["evaluated"] == 2 ** 5 - 1
        assert payload["runner_up_fitness"] <= payload["best_fitness"]
        assert isinstance(payload["best_features"], list)

    def test_width_guard(self, wide_csv, tmp_path, capsys):
        rc = main(["oracle", "--data", wide_csv, "--out", str(tmp_path)])
        assert rc == 1
        assert "exceeds max_n" in capsys.readouterr().err


class TestEvaluate:
    def test_mask_from_names(self, named_csv, tmp_path):
        rc = main(["evaluate", "--data", named_csv, "--out", str(tmp_path),
                   "--evaluate.mask=Tz1,Tz4"])
        assert rc == 0
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["dimension"] == 2

    def test_mask_from_hex(self, named_csv, tmp_path):
        rc = main(["evaluate", "--data", named_csv, "--out", str(tmp_path),
                   "--evaluate.mask=3"])
        assert rc == 0
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["dimension"] == 2

    def test_unparseable_mask(self, named_csv, capsys):
        rc = main(["evaluate", "--data", named_csv, "--evaluate.mask=Tz1,bogus"])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_mask_required(self, named_csv, capsys):
        rc = main(["evaluate", "--data", named_csv])
        assert rc == 1
        assert "no mask" in capsys.readouterr().err


class TestCompare:
    def test_single_run_table(self, small_csv, tmp_path, capsys):
        rc = main([
            "compare", "--data", small_csv, "--out", str(tmp_path),
            "--compare.runs=1", "--baselines.kinds=GA",
            "--baselines.np=10", "--baselines.g_max=10",
            "--compare.certify=true", *FAST_MA,
            "--ma.g_max=10", "--ma.ts_iters=8",
        ])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
        assert lines[0].startswith("optimizer,")
        assert len(lines) == 3
        assert lines[1].startswith("MA,")
        assert lines[2].startswith("GA,")

    def test_unknown_kind(self, small_csv, capsys):
        rc = main(["compare", "--data", small_csv, "--baselines.kinds=GA,SA"])
        assert rc == 1
        assert "unknown optimizer kind" in capsys.readouterr().err

    def test_repeated_kind(self, small_csv, tmp_path, capsys):
        rc = main(["compare", "--data", small_csv, "--out", str(tmp_path / "run"),
                   "--baselines.kinds=GA,BPSO,GA"])
        assert rc == 1
        assert "optimizer kind 'GA' is repeated" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nan_optimizer_settings_rejected(self, small_csv, tmp_path, capsys, monkeypatch):
        # the configs are checked before the certifying oracle runs
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran before the config was checked")

        monkeypatch.setattr(cli, "exhaustive_best", no_oracle)
        for flag, field in (("--baselines.fitness_stop=nan", "fitness_stop"),
                            ("--ma.fitness_stop=nan", "fitness_stop")):
            rc = main(["compare", "--data", small_csv, "--out", str(tmp_path / "run"),
                       "--baselines.kinds=BPSO", "--compare.certify=true", flag])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"{field} must" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--baselines.kinds=GA,BPSO,GA", "optimizer kind 'GA' is repeated"),
        ("--baselines.kinds=GA,SA", "unknown optimizer kind 'SA'"),
        ("--compare.runs=0", "compare.runs must be at least 1"),
        ("--compare.runs=-2", "compare.runs must be at least 1"),
    ])
    def test_bad_study_rejected_before_oracle(self, small_csv, tmp_path, capsys,
                                              monkeypatch, flag, message):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran before the settings were checked")

        monkeypatch.setattr(cli, "exhaustive_best", no_oracle)
        rc = main(["compare", "--data", small_csv, "--out", str(tmp_path / "run"),
                   "--compare.certify=true", flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "frsel", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("frsel ")

    @pytest.fixture(scope="class")
    def select_modules(self, small_csv, tmp_path_factory):
        """The modules of LEAN_MODULES a fresh interpreter holds after one
        select, which must succeed."""
        out = tmp_path_factory.mktemp("lean") / "run"
        argv = ["select", "--data", small_csv, "--out", str(out), *FAST_MA]
        code = ("import sys\nfrom frsel.cli import main\n"
                f"rc = main({argv!r})\n"
                f"print(rc, *[m for m in {LEAN_MODULES!r} if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        rc, *loaded = proc.stdout.splitlines()[-1].split()
        assert rc == "0" and (out / "selection.json").is_file()
        return loaded

    # np.unique imports numpy.ma on its first call, at a cost of milliseconds
    # and over a megabyte; the others cost import time on every CLI call.
    @pytest.mark.parametrize("module", LEAN_MODULES)
    def test_select_leaves_module_unloaded(self, select_modules, module):
        assert module not in select_modules
