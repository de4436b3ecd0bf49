import csv
import io
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from metagrad.cli import build_parser, main
from metagrad.svgchart import line_chart

SRC = Path(__file__).resolve().parent.parent / "src"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def polyline_count(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


@pytest.mark.parametrize("y", [0.0, -3.5, 2.8e19, -2.8e19, 1.7e308, -1.7e308])
def test_flat_series_charts_at_any_magnitude(y):
    # a flat range widens up by 1 where y + 1 != y, else halfway toward zero
    root = ET.fromstring(line_chart([("flat", [0, 1], [y, y])], title="t", xlabel="x", ylabel="y"))
    ticks = [float(el.text) for el in root.iter() if el.tag.endswith("text") and el.get("text-anchor") == "end"]
    lo, hi = (y, y + 1.0) if y + 1.0 > y else sorted((y, y / 2))
    assert ticks == sorted(set(ticks)) and len(ticks) == 5
    assert ticks[0] == pytest.approx(lo, rel=1e-5) and ticks[-1] == pytest.approx(hi, rel=1e-5)


class TestBounds:
    def test_single_theorem_rows_and_anchor(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bounds", "--theorem", "2", "--K", "5", "--alpha", "0.25", "--H", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "bounds.csv")
        assert len(rows) == 6
        assert [r["L"] for r in rows] == [str(i) for i in range(6)]
        assert float(rows[0]["ratio_tr"]) == 1.0 and float(rows[0]["ratio_bin"]) == 1.0
        assert (out / "resolved_config.txt").exists()
        assert polyline_count(out / "bounds_theorem2.svg") == 3

    def test_theorem4_row_range(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bounds", "--theorem", "4", "--M", "1", "--h", "0.1", "--out", str(out)]) == 0
        rows = read_csv(out / "bounds.csv")
        assert [r["L"] for r in rows] == ["1", "2", "3", "4", "5"]

    def test_all_theorems(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bounds", "--out", str(out)]) == 0
        rows = read_csv(out / "bounds.csv")
        assert {r["theorem"] for r in rows} == {"2", "3", "4"}
        for t in (2, 3, 4):
            assert (out / f"bounds_theorem{t}.svg").exists()

    def test_constraint_error_exit_code(self, tmp_path, capsys):
        code = main(["bounds", "--theorem", "3", "--alpha", "2.0", "--H", "1.0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "1/H" in capsys.readouterr().err

    def test_non_numeric_theorem_names_the_valid_values(self, tmp_path, capsys):
        assert main(["bounds", "--theorem", "abc", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == "metagrad: error: theorem must be all, 2, 3 or 4, got 'abc'\n"

    def test_invalid_m_combination(self, tmp_path):
        code = main(["bounds", "--theorem", "4", "--M", "3", "--K", "5", "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("argv, condition", [
        (["--theorem", "4", "--alpha", "2"], "1/H"),
        (["--h", "5"], "h cannot exceed H"),
        (["--theorem", "4", "--alpha", "8", "--M", "2"], "1/H"),
    ], ids=["theorem4-alpha2", "all-h5", "theorem4-alpha8-M2"])
    def test_regime4_outside_its_conditions_exits_one(self, tmp_path, capsys, argv, condition):
        # regime 4 holds only for alpha*H <= 1 and h <= H; no regime's file is written
        out = tmp_path / "x"
        assert main(["bounds", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("metagrad: error: ") and err.count("\n") == 1 and condition in err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.txt"]

    @pytest.mark.parametrize("argv, named", [
        (["--K", "0"], "M=1, K=0"), (["--K", "1"], "M=1, K=1"), (["--K", "3", "--M", "2"], "M=2, K=3"),
    ], ids=["K0", "K1", "K3-M2"])
    def test_m_past_half_k_names_only_m_and_k(self, tmp_path, capsys, argv, named):
        # bounds takes no L, so regime 4's constraint error names only the M and K it was given
        out = tmp_path / "x"
        assert main(["bounds", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("metagrad: error: ") and err.count("\n") == 1
        assert named in err and "L=" not in err
        assert not (out / "bounds.csv").exists()

    @pytest.mark.parametrize("argv, field", [
        (["--alpha", "nan"], "alpha"),
        (["--theorem", "2", "--H", "inf"], "H"),
        (["--g-norm", "nan"], "||g||"),
        (["--g-norm", "inf"], "||g||"),
        (["--theorem", "4", "--h", "nan"], "h"),
    ], ids=["alpha-nan", "theorem2-H-inf", "g-norm-nan", "g-norm-inf", "theorem4-h-nan"])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x"
        assert main(["bounds", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"metagrad: error: {field} must be finite and ") and err.count("\n") == 1
        assert not (out / "bounds.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["bounds", "--out", str(out)]) == 0
        assert (out_a / "bounds.csv").read_bytes() == (out_b / "bounds.csv").read_bytes()
        assert (out_a / "bounds_theorem3.svg").read_bytes() == (out_b / "bounds_theorem3.svg").read_bytes()


class TestErrorSweep:
    @pytest.mark.parametrize("family", ["quadratic", "sinusoid"])
    def test_expansion_beats_truncation(self, tmp_path, family):
        # sinusoid at its default alpha; between L = 0 and L = K the expansion error is below truncation's
        out = tmp_path / "run"
        args = [
            "error-sweep", "--family", family, "--K", "5", "--batches", "5",
            "--batch", "10", "--d", "4", "--seed", "0", "--out", str(out),
        ]
        assert main(args) == 0
        averaged = read_csv(out / "errors_averaged.csv")
        assert [r["L"] for r in averaged] == [str(i) for i in range(6)]
        for r in averaged:
            fo, tr, binom = (float(r[c]) for c in ("err_fo", "err_tr", "err_bin"))
            if r["L"] == "0":
                assert fo == tr == binom
            elif r["L"] == "5":
                assert tr == binom == 0.0
            else:
                assert binom < tr < fo
        per_batch = read_csv(out / "errors_per_batch.csv")
        assert len(per_batch) == 5 * 6
        assert polyline_count(out / "error_vs_batch.svg") == 2
        assert polyline_count(out / "error_vs_L.svg") == 3

    def test_truncation_beats_expansion_at_L1_for_K10(self, tmp_path):
        # characterization at seed 0: at K=10 the order-1 expansion overshoots, and
        # truncation wins at L=1; the expansion wins at every L from 2 to K-1
        out = tmp_path / "run"
        args = ["error-sweep", "--family", "quadratic", "--K", "10", "--batches", "10", "--seed", "0",
                "--out", str(out)]
        assert main(args) == 0
        averaged = {int(r["L"]): (float(r["err_tr"]), float(r["err_bin"]))
                    for r in read_csv(out / "errors_averaged.csv")}
        tr, binom = averaged[1]
        assert binom > tr
        for L in range(2, 10):
            tr, binom = averaged[L]
            assert binom < tr, L

    def test_single_batch_files_match(self, tmp_path):
        out = tmp_path / "run"
        assert main(["error-sweep", "--batches", "1", "--K", "3", "--d", "3", "--out", str(out)]) == 0
        per_batch = read_csv(out / "errors_per_batch.csv")
        averaged = read_csv(out / "errors_averaged.csv")
        assert len(per_batch) == len(averaged)
        for pb, av in zip(per_batch, averaged):
            assert (pb["L"], pb["err_fo"], pb["err_tr"], pb["err_bin"]) == (
                av["L"], av["err_fo"], av["err_tr"], av["err_bin"])

    def test_sinusoid_protocol_shape(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "error-sweep", "--family", "sinusoid", "--shots", "10", "--batch", "10",
            "--batches", "1", "--K", "3", "--alpha", "0.01", "--out", str(out),
        ]
        assert main(args) == 0
        assert len(read_csv(out / "errors_averaged.csv")) == 4

    def test_bad_family(self, tmp_path, capsys):
        assert main(["error-sweep", "--family", "images", "--out", str(tmp_path / "x")]) == 1
        assert "family" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["error-sweep", "--batches", "2", "--K", "3", "--d", "3",
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("errors_per_batch.csv", "errors_averaged.csv", "error_vs_L.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestMetatrain:
    def test_smoke_fo(self, tmp_path):
        out = tmp_path / "run"
        args = ["metatrain", "--estimator", "fo", "--iters", "5", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out / "train.csv")
        assert len(rows) == 5
        assert polyline_count(out / "loss_curve.svg") == 1

    def test_full_vs_binom_full_order_loss_curves(self, tmp_path):
        outs = {}
        for name, est, L in (("full", "full", 0), ("binom", "binom", 5)):
            out = tmp_path / name
            args = [
                "metatrain", "--estimator", est, "--L", str(L), "--iters", "50",
                "--seed", "4", "--out", str(out),
            ]
            assert main(args) == 0
            outs[name] = read_csv(out / "train.csv")
        for a, b in zip(outs["full"], outs["binom"]):
            assert abs(float(a["meta_loss"]) - float(b["meta_loss"])) <= 1e-6 * (1 + abs(float(a["meta_loss"])))

    def test_binom_beats_trunc_at_same_truncation(self, tmp_path):
        finals = {"binom": [], "trunc": []}
        for seed in range(5):
            for est in ("binom", "trunc"):
                out = tmp_path / f"{est}{seed}"
                args = [
                    "metatrain", "--estimator", est, "--L", "1", "--iters", "300",
                    "--seed", str(seed), "--beta", "0.05", "--out", str(out),
                ]
                assert main(args) == 0
                finals[est].append(float(read_csv(out / "train.csv")[-1]["meta_loss"]))
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(finals["binom"]) <= mean(finals["trunc"])

    def test_divergence_exit_code(self, tmp_path, capsys):
        args = [
            "metatrain", "--family", "quadratic", "--alpha", "1000", "--K", "150",
            "--iters", "1", "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "diverge" in err and "task 0" in err

    def test_non_finite_meta_loss_exits_two(self, tmp_path, capsys):
        # K = 1 keeps the iterate finite; the validation loss overflows to Inf
        args = [
            "metatrain", "--family", "quadratic", "--estimator", "imaml", "--alpha", "1e300",
            "--K", "1", "--iters", "2", "--batch", "2", "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 2
        assert "task 0: validation loss is NaN/Inf" in capsys.readouterr().err
        assert not (tmp_path / "x" / "train.csv").exists()

    def test_non_finite_meta_update_norm_exits_two(self, tmp_path, capsys):
        # every estimate is finite, but the norm of their mean overflows
        args = [
            "metatrain", "--family", "logistic", "--alpha", "1e300", "--K", "3", "--iters", "2",
            "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 2
        assert "meta-iteration 0: meta-update norm is NaN/Inf" in capsys.readouterr().err
        assert not (tmp_path / "x" / "train.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--estimator", "imaml", "--alpha", "1e300", "--K", "1", "--iters", "2", "--batch", "2"],
        ["--H", "1e200", "--iters", "3"],
    ])
    def test_overflow_prints_one_stderr_line(self, tmp_path, argv):
        # numpy's overflow warnings stay off stderr; the run's one line is its divergence report
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "metagrad.cli", "metatrain", "--family", "quadratic", *argv,
               "--out", str(tmp_path / "x")]
        run = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert run.stderr.startswith("metagrad: numerical divergence: ") and run.stderr.count("\n") == 1

    def test_flat_large_meta_loss_charts(self, tmp_path):
        # one meta-loss of about 2.8e19, where y + 1 rounds back to y
        out = tmp_path / "x"
        args = ["metatrain", "--family", "quadratic", "--alpha", "100", "--K", "5", "--iters", "1", "--out", str(out)]
        assert main(args) == 0
        loss = float(read_csv(out / "train.csv")[0]["meta_loss"])
        assert loss + 1.0 == loss
        assert polyline_count(out / "loss_curve.svg") == 1

    def test_sweep_divergence_names_batch_task_and_step(self, tmp_path, capsys):
        # K = 1 keeps the iterate finite, so the cascade is the first to overflow
        args = [
            "error-sweep", "--family", "quadratic", "--alpha", "1e300", "--K", "1",
            "--batches", "1", "--batch", "2", "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 2
        assert "batch 0, task 0: NaN/Inf at cascade stage 0, step k=0" in capsys.readouterr().err

    @pytest.mark.parametrize("C, same", [("2", ["--estimator", "trunc"]), ("5", ["--estimator", "binom"])])
    def test_binom_trunc_window_ends_are_trunc_and_binom(self, tmp_path, C, same):
        # at L = 2, K = 5 the hybrid with C = L is trunc and with C = K is binom, costs included
        common = ["metatrain", "--L", "2", "--K", "5", "--iters", "5"]
        assert main([*common, "--estimator", "binom-trunc", "--C", C, "--out", str(tmp_path / "a")]) == 0
        assert main([*common, *same, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "train.csv").read_bytes() == (tmp_path / "b" / "train.csv").read_bytes()

    def test_imaml_and_reptile_run(self, tmp_path):
        for est, extra in (("imaml", ["--lambda", "2.0"]), ("reptile", ["--eps", "0.5"])):
            out = tmp_path / est
            assert main(["metatrain", "--estimator", est, "--iters", "3", "--out", str(out), *extra]) == 0

    @pytest.mark.parametrize("family", ["sinusoid", "logistic"])
    def test_byte_identical_reruns(self, tmp_path, family):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["metatrain", "--family", family, "--estimator", "imaml", "--iters", "3", "--batch", "4",
                         "--seed", "5", "--track-errors", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("train.csv", "loss_curve.svg", "resolved_config.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"), ("--beta", "nan", "beta"),
        ("--beta", "inf", "beta"), ("--lambda", "nan", "imaml_lambda"), ("--lambda", "inf", "imaml_lambda"),
    ])
    def test_non_finite_hyperparameter_exits_one_naming_field(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x"
        assert main(["metatrain", "--estimator", "imaml", flag, value, "--iters", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"metagrad: error: {field} must be")
        assert not (out / "train.csv").exists()

    def test_truncation_out_of_range_exits_one(self, tmp_path, capsys):
        for extra in (["--estimator", "trunc"], ["--estimator", "fo", "--track-errors"]):
            args = ["metatrain", "--L", "9", "--K", "5", "--iters", "1", "--out", str(tmp_path / "x"), *extra]
            assert main(args) == 1
            assert "truncation" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["binom-batched", "binom-oracle"])
    def test_removed_estimator_kinds_exit_one(self, tmp_path, capsys, kind):
        assert main(["metatrain", "--estimator", kind, "--iters", "1", "--out", str(tmp_path / "x")]) == 1
        assert "unknown estimator kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["metatrain", "--iters", "0"], "iters"),
        (["metatrain", "--d", "0", "--iters", "1"], "dim"),
        (["error-sweep", "--d", "0", "--batches", "1"], "dim"),
        (["metatrain", "--H", "-1", "--iters", "1"], "hmax"),
        (["error-sweep", "--H", "-1", "--batches", "1"], "hmax"),
        (["metatrain", "--H", "nan", "--iters", "1"], "hmax"),
        (["error-sweep", "--H", "inf", "--batches", "1"], "hmax"),
        (["metatrain", "--family", "quadratic", "--shots", "0", "--iters", "1"], "shots"),
        (["error-sweep", "--family", "quadratic", "--shots", "0", "--batches", "1"], "shots"),
    ],
    ids=["metatrain-iters0", "metatrain-d0", "error-sweep-d0", "metatrain-H-1", "error-sweep-H-1",
         "metatrain-Hnan", "error-sweep-Hinf",
         "metatrain-shots0", "error-sweep-shots0"],
)
def test_invalid_size_exits_one_naming_field(tmp_path, capsys, argv, field):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"metagrad: error: {field} must be")
    assert "Traceback" not in err
    assert not (out / "train.csv").exists()


class TestCost:
    def test_counter_table(self, tmp_path):
        out = tmp_path / "run"
        assert main(["cost", "--K", "5", "--out", str(out)]) == 0
        rows = {(r["estimator"], r["L"]): r for r in read_csv(out / "cost.csv")}
        assert rows[("binom", "2")]["hvp_total"] == "8"
        assert rows[("binom", "2")]["sequential_depth"] == "2"
        assert rows[("binom", "2")]["peak_live_vectors"] == "4"
        assert (rows[("full", "5")]["hvp_total"], rows[("full", "5")]["sequential_depth"]) == ("5", "5")
        assert rows[("full", "5")]["peak_live_vectors"] == "1"
        assert [rows[("binom", "0")][c] for c in ("hvp_total", "sequential_depth", "peak_live_vectors")] == ["0", "0", "0"]

    def test_negative_k_exits_one_naming_k(self, tmp_path, capsys):
        # cost takes no L, so the error names only K
        out = tmp_path / "x"
        assert main(["cost", "--K", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "metagrad: error: K must be >= 0\n"
        assert not (out / "cost.csv").exists()


@pytest.mark.parametrize("command, keys", [
    ("bounds", ["seed"]),
    ("cost", ["seed", "d", "alpha"]),
], ids=["bounds", "cost"])
def test_seed_rejected_where_nothing_is_random(tmp_path, capsys, command, keys):
    # bounds and cost draw nothing at random, so they take no seed, by flag or config file;
    # cost's counters depend on K alone, so it takes no dimension or step size either
    for key in keys:
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{key}", "3", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert f"--{key}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=3\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "y")]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err


def resolved(out):
    lines = (out / "resolved_config.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


class TestFamilyDefaults:
    def test_sine_metatrain_defaults_stay_finite(self, tmp_path):
        out = tmp_path / "run"
        assert main(["metatrain", "--family", "sinusoid", "--estimator", "fo", "--iters", "3",
                     "--out", str(out)]) == 0
        cfg = resolved(out)
        assert (cfg["alpha"], cfg["beta"], cfg["lambda"]) == ("0.001", "0.002", "100.0")
        losses = [float(r["meta_loss"]) for r in read_csv(out / "train.csv")]
        assert len(losses) == 3 and all(math.isfinite(x) and x < 1e3 for x in losses)

    def test_sine_error_sweep_default_alpha(self, tmp_path):
        out = tmp_path / "run"
        assert main(["error-sweep", "--family", "sinusoid", "--batches", "1", "--batch", "2",
                     "--K", "3", "--out", str(out)]) == 0
        assert resolved(out)["alpha"] == "0.001"
        for r in read_csv(out / "errors_averaged.csv"):
            assert all(math.isfinite(float(r[c])) and float(r[c]) < 1e3 for c in ("err_fo", "err_tr", "err_bin"))

    def test_explicit_values_win_on_sine(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("beta=0.01\n")
        out = tmp_path / "run"
        assert main(["metatrain", "--family", "sinusoid", "--estimator", "fo", "--iters", "2",
                     "--alpha", "0.25", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = resolved(out)
        assert (cfg["alpha"], cfg["beta"], cfg["lambda"]) == ("0.25", "0.01", "100.0")
        # alpha 0.25 is outside the family's step-size regime: the run diverges without Inf
        assert float(read_csv(out / "train.csv")[0]["meta_loss"]) > 1e6

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_other_families_keep_shared_defaults(self, tmp_path, family):
        runs = {
            "default": ["metatrain", "--family", family, "--estimator", "imaml", "--iters", "3"],
            "explicit": ["metatrain", "--family", family, "--estimator", "imaml", "--iters", "3",
                         "--alpha", "0.25", "--beta", "0.001", "--lambda", "1.0"],
            "sweep-default": ["error-sweep", "--family", family, "--batches", "2"],
            "sweep-explicit": ["error-sweep", "--family", family, "--batches", "2", "--alpha", "0.25"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        for default, explicit in (("default", "explicit"), ("sweep-default", "sweep-explicit")):
            files = sorted(f.name for f in (tmp_path / default).iterdir())
            assert files == sorted(f.name for f in (tmp_path / explicit).iterdir())
            for name in files:
                assert (tmp_path / default / name).read_bytes() == (tmp_path / explicit / name).read_bytes()


class TestConfigHandling:
    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# bounds sweep\ntheorem=2\nK=4\nalpha=0.2\n")
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--K", "5", "--out", str(out)]) == 0
        rows = read_csv(out / "bounds.csv")
        assert len(rows) == 6  # flag K=5 overrides file K=4
        resolved = (out / "resolved_config.txt").read_text()
        assert "K=5" in resolved and "alpha=0.2" in resolved and "command=bounds" in resolved

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem 2\n")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--frobnicate", "1"])
        assert exc.value.code == 1

    def test_bool_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rescale_alpha=true\nbatches=2\nbatch=2\nd=2\nK=3\n")
        out = tmp_path / "out"
        assert main(["error-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "rescale_alpha=true" in (out / "resolved_config.txt").read_text()


def files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestRepeatedCalls:
    @pytest.mark.parametrize("first, second", [
        (["error-sweep", "--batches", "2", "--K", "10"], ["error-sweep", "--batches", "2", "--K", "1"]),
        (["metatrain", "--iters", "20"], ["metatrain", "--iters", "3"]),
    ], ids=["error-sweep", "metatrain"])
    def test_rerun_into_non_empty_out_equals_a_fresh_run(self, tmp_path, first, second):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main([*first, "--out", str(reused)]) == 0
        earlier = files(reused)
        assert main([*second, "--out", str(reused)]) == 0
        assert main([*second, "--out", str(fresh)]) == 0
        assert files(reused) == files(fresh)
        # every file of the second run is shorter, so a stale tail would show
        assert all(len(data) < len(earlier[name]) for name, data in files(fresh).items())

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_no_flag_carries_over_to_the_next_call(self, tmp_path):
        sweep = ["error-sweep", "--batches", "1", "--batch", "2", "--K", "2"]
        assert main([*sweep, "--seed", "3", "--rescale-alpha", "--out", str(tmp_path / "a")]) == 0
        assert main([*sweep, "--out", str(tmp_path / "b")]) == 0
        assert [resolved(tmp_path / out)[key] for out in "ab" for key in ("seed", "rescale_alpha")] == [
            "3", "true", "0", "false"]

    def test_bad_flag_exits_one_with_the_same_stderr_again(self, capsys):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["bounds", "--frobnicate", "1"])
            assert exc.value.code == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].endswith("error: unrecognized arguments: --frobnicate 1\n")
