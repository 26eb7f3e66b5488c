import argparse
import math
import re
import shlex
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierstab import cli, uniformize
from fourierstab.cli import (
    EXIT_CAPACITY,
    EXIT_DEGENERATE,
    EXIT_DIMENSION,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_SCHEMA,
    build_parser,
    main,
)
from fourierstab.fourier import MonteCarloChow, chow_exact
from fourierstab.neuron import PNorm, stabilized_weights
from fourierstab.network import (
    Activation,
    BinaryMlp,
    LabeledDataset,
    first_layer_ltf,
    fresh_mask,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from fourierstab.uniformize import load_covariance_model


def run(*argv):
    return main([str(a) for a in argv])


def first_line(path):
    with open(path) as fh:
        return fh.readline()


@pytest.fixture()
def workspace(tmp_path):
    """Small planted-LTF dataset plus a trained model."""
    prefix = tmp_path / "data"
    assert run(
        "gen-data", "--kind", "planted-ltf", "--n", 8,
        "--train", 200, "--val", 100, "--test", 100, "--seed", 1, "--out", prefix,
    ) == EXIT_OK
    model = tmp_path / "model.txt"
    assert run(
        "train", "--data", prefix, "--width", 6, "--epochs", 10,
        "--seed", 2, "--out", model,
    ) == EXIT_OK
    return tmp_path, prefix, model


class TestGenData:
    def test_writes_loadable_splits(self, tmp_path):
        prefix = tmp_path / "d"
        assert run(
            "gen-data", "--kind", "noisy-majority", "--n", 5,
            "--train", 50, "--val", 20, "--test", 20, "--noise", 0.1,
            "--seed", 7, "--out", prefix,
        ) == EXIT_OK
        for split, m in [("train", 50), ("validation", 20), ("test", 20)]:
            ds = load_dataset(f"{prefix}.{split}.csv", split=split)
            assert ds.m == m and ds.n == 5

    def test_deterministic_bytes(self, tmp_path):
        args = ["gen-data", "--kind", "planted-mlp", "--n", 6, "--train", 40,
                "--val", 10, "--test", 10, "--seed", 3]
        assert run(*args, "--out", tmp_path / "a") == EXIT_OK
        assert run(*args, "--out", tmp_path / "b") == EXIT_OK
        for split in ("train", "validation", "test"):
            a = (tmp_path / f"a.{split}.csv").read_bytes()
            b = (tmp_path / f"b.{split}.csv").read_bytes()
            assert a == b

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", 100000, "--train", 100000],
            ["--kind", "planted-mlp", "--n", 5000, "--teacher-width", 5000],
        ],
        ids=["examples", "teacher-width"],
    )
    def test_oversized_request_is_capacity_error(self, tmp_path, capsys, argv):
        # Refused before anything is drawn; uncapped, the first would allocate 75 GiB.
        assert run("gen-data", "--kind", "planted-ltf", *argv, "--out", tmp_path / "d") == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "cap" in err and "Traceback" not in err and len(err) < 100
        assert list(tmp_path.iterdir()) == []

    def test_cell_cap_boundary(self, tmp_path, monkeypatch):
        # At n=10 and a cap of 100 cells, 10 examples and a teacher of width 10 fit; 11 do not.
        monkeypatch.setattr(cli, "CELL_CAP", 100)
        argv = ["gen-data", "--kind", "planted-mlp", "--n", 10, "--val", 1, "--test", 1]
        assert run(*argv, "--train", 9, "--out", tmp_path / "over") == EXIT_CAPACITY
        assert run(*argv, "--train", 2, "--teacher-width", 11, "--out", tmp_path / "wide") == EXIT_CAPACITY
        assert run(*argv, "--train", 8, "--teacher-width", 10, "--out", tmp_path / "at") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"at.{s}.csv" for s in ("test", "train", "validation")]

    @pytest.mark.parametrize(
        "kind, noise, rows",
        [
            ("planted-ltf", 0.0, ["-1,-1,-1,-1,-1,-1", "-1,-1,+1,+1,-1,+1", "+1,+1,-1,-1,-1,-1",
                                  "+1,-1,-1,+1,-1,-1", "+1,-1,+1,+1,-1,-1", "+1,+1,-1,-1,-1,-1",
                                  "-1,+1,-1,-1,-1,-1", "-1,-1,+1,+1,-1,+1"]),
            ("planted-mlp", 0.0, ["-1,-1,-1,-1,-1,-1", "-1,-1,+1,+1,-1,-1", "+1,+1,-1,-1,-1,+1",
                                  "+1,-1,-1,+1,-1,+1", "+1,-1,+1,+1,-1,-1", "+1,+1,-1,-1,-1,+1",
                                  "-1,+1,-1,-1,-1,+1", "-1,-1,+1,+1,-1,-1"]),
            ("noisy-majority", 0.25, ["-1,-1,-1,-1,-1,-1", "-1,-1,+1,+1,-1,-1", "+1,+1,-1,-1,-1,-1",
                                      "+1,-1,-1,+1,-1,+1", "+1,-1,+1,+1,-1,+1", "+1,+1,-1,-1,-1,-1",
                                      "-1,+1,-1,-1,-1,-1", "-1,-1,+1,+1,-1,-1"]),
        ],
    )
    def test_golden_bytes(self, tmp_path, kind, noise, rows):
        # The same seed draws the same features for every kind; the labels are the teacher's.
        prefix = tmp_path / "d"
        assert run("gen-data", "--kind", kind, "--n", 5, "--train", 4, "--val", 2, "--test", 2,
                   "--noise", noise, "--teacher-width", 3, "--seed", 4, "--out", prefix) == EXIT_OK
        header = (f"# config: cmd=gen-data input=None kind={kind} labels=None n=5 noise={noise} seed=4 "
                  "teacher_width=3 test=2 train=4 val=2\nn=5\n")
        for split, lo, hi in (("train", 0, 4), ("validation", 4, 6), ("test", 6, 8)):
            assert (tmp_path / f"d.{split}.csv").read_text() == header + "".join(r + "\n" for r in rows[lo:hi])

    def test_prefix_may_name_a_directory(self, tmp_path):
        # --out is a prefix: with d a directory, the splits are d.train.csv and so on, beside it.
        (tmp_path / "d").mkdir()
        assert run("gen-data", "--kind", "noisy-majority", "--n", 3, "--train", 2, "--val", 1, "--test", 1,
                   "--out", tmp_path / "d") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "d.test.csv", "d.train.csv", "d.validation.csv"]

    def test_config_header_present(self, tmp_path):
        prefix = tmp_path / "d"
        run("gen-data", "--kind", "noisy-majority", "--n", 4, "--train", 10,
            "--val", 5, "--test", 5, "--seed", 0, "--out", prefix)
        first = first_line(f"{prefix}.train.csv")
        assert first.startswith("# config: cmd=gen-data")
        assert "seed=0" in first

    def test_uniformize_pipeline(self, tmp_path, rng):
        raw = tmp_path / "raw.csv"
        X = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3))
        np.savetxt(raw, X, delimiter=",")
        prefix = tmp_path / "u"
        assert run("gen-data", "--kind", "uniformize", "--input", raw, "--out", prefix) == EXIT_OK
        ds = load_dataset(f"{prefix}.train.csv")
        assert ds.m == 300 and ds.n == 3
        model = load_covariance_model(f"{prefix}.covmodel.txt")
        model.validate()

    def test_uniformize_caps(self, tmp_path, monkeypatch, capsys):
        # At a cap of 3 columns and 12 cells, a 4x3 input fits; 4 columns, or 5 rows of 3,
        # do not, and are refused before fitting.
        monkeypatch.setattr(cli, "UNIFORMIZE_DIM_CAP", 3)
        monkeypatch.setattr(cli, "CELL_CAP", 12)
        fitted, fit = [], uniformize.fit
        monkeypatch.setattr(uniformize, "fit", lambda raw: fitted.append(raw) or fit(raw))
        rng = np.random.default_rng(0)
        for rows, d, code in ((4, 4, EXIT_CAPACITY), (5, 3, EXIT_CAPACITY), (4, 3, EXIT_OK)):
            raw = tmp_path / f"raw{rows}x{d}.csv"
            np.savetxt(raw, rng.normal(size=(rows, d)), delimiter=",")
            assert run("gen-data", "--kind", "uniformize", "--input", raw, "--out", tmp_path / "u") == code
        err = capsys.readouterr().err
        assert err.count("over the cap of 3 columns or 12 cells") == 2
        assert "input is 4x4," in err and "input is 5x3," in err
        assert [a.shape for a in fitted] == [(4, 3)]

    def test_uniformize_header_records_labels(self, tmp_path, rng):
        raw, labels = tmp_path / "raw.csv", tmp_path / "labels.txt"
        np.savetxt(raw, rng.normal(size=(50, 2)), delimiter=",")
        np.savetxt(labels, rng.choice([-1.0, 1.0], size=50))
        prefix = tmp_path / "u"
        assert run("gen-data", "--kind", "uniformize", "--input", raw, "--labels", labels,
                   "--out", prefix) == EXIT_OK
        first = first_line(f"{prefix}.train.csv")
        assert f" labels={labels} " in first


class TestTrainChowStabilize:
    def test_model_round_trip_and_determinism(self, workspace, tmp_path):
        _, prefix, model = workspace
        net = load_model(model)
        assert net.t == 6 and net.n == 8
        other = tmp_path / "model2.txt"
        assert run(
            "train", "--data", prefix, "--width", 6, "--epochs", 10,
            "--seed", 2, "--out", other,
        ) == EXIT_OK
        assert model.read_bytes() == other.read_bytes()

    def test_chow_values_match_library(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "chow.csv"
        assert run("chow", "--model", model, "--unit", 0, "--out", out) == EXIT_OK
        net = load_model(model)
        est = chow_exact(first_layer_ltf(net, 0).handle(), net.n)
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "coefficient,value"
        assert float(rows[1].split(",")[1]) == est.h_empty
        for i, ln in enumerate(rows[2:]):
            assert float(ln.split(",")[1]) == est.h_vec[i]

    def test_chow_golden_bytes(self, tmp_path):
        model, out = tmp_path / "model.txt", tmp_path / "chow.csv"
        save_model(BinaryMlp(np.array([[1.0, -0.75, 0.5]]), np.array([0.25]), Activation.SIGN,
                             np.ones(1), 0.0, fresh_mask(1)), model)
        assert run("chow", "--model", model, "--unit", 0, "--out", out) == EXIT_OK
        assert out.read_text() == (
            "# config: cmd=chow cap=22 chow_delta=0.01 chow_epsilon=0.05 chow_mode=exact "
            f"chow_seed=0 model={model} unit=0\n"
            "coefficient,value\n"
            "empty,0.25\n"
            "0,0.75\n"
            "1,-0.25\n"
            "2,0.25\n"
            "# mode=exact samples=0 epsilon=0.0 delta=0.0\n"
        )

    def test_chow_mc_uses_the_unit_seed_stream(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "chow.csv"
        assert run("chow", "--model", model, "--unit", 2, "--chow-mode", "mc",
                   "--chow-epsilon", 0.1, "--chow-seed", 5, "--out", out) == EXIT_OK
        net = load_model(model)
        source = MonteCarloChow(epsilon=0.1, delta=0.01, seed=5)
        est = source.estimate(first_layer_ltf(net, 2).handle(), net.n, key=2)
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        values = [float(ln.split(",")[1]) for ln in rows[1:]]
        assert values == [est.h_empty, *est.h_vec]

    def test_stabilize_uses_the_coefficients_chow_writes(self, workspace, tmp_path):
        # The same unit and seed give the same Monte-Carlo coefficients in both commands.
        _, _, model = workspace
        mc = ["--chow-mode", "mc", "--chow-epsilon", 0.1, "--chow-seed", 5]
        for j in range(load_model(model).t):
            chow, stab = tmp_path / f"chow{j}.csv", tmp_path / f"stab{j}.txt"
            assert run("chow", "--model", model, "--unit", j, *mc, "--out", chow) == EXIT_OK
            assert run("stabilize", "--model", model, "--units", j, "--p", 2, *mc, "--out", stab) == EXIT_OK
            rows = [ln for ln in chow.read_text().splitlines() if ln and not ln.startswith("#")]
            h_vec = np.array([float(ln.split(",")[1]) for ln in rows[2:]])
            assert load_model(stab).W1[j].tolist() == stabilized_weights(h_vec, PNorm(2.0)).tolist()

    def test_stabilize_all_p1(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "stab.txt"
        assert run("stabilize", "--model", model, "--units", "all", "--p", "1",
                   "--out", out) == EXIT_OK
        net = load_model(model)
        stab = load_model(out)
        assert stab.stabilized_mask.all()
        np.testing.assert_array_equal(stab.W1, np.sign(net.W1))

    def test_stabilize_subset_of_units(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "stab.txt"
        assert run("stabilize", "--model", model, "--units", "0,2", "--p", "2",
                   "--out", out) == EXIT_OK
        stab = load_model(out)
        assert list(np.nonzero(stab.stabilized_mask)[0]) == [0, 2]

    @pytest.mark.parametrize("command", ["train", "adv-train"])
    def test_width_cap_boundary(self, workspace, tmp_path, monkeypatch, capsys, command):
        # The workspace data has n=8: at a cap of 40 cells a first layer of width 5
        # fits and one of width 6 does not, refused before any training.
        _, prefix, _ = workspace
        monkeypatch.setattr(cli, "CELL_CAP", 40)
        argv = [command, "--data", prefix, "--epochs", 1, *(["--at-epochs", 1] if command == "adv-train" else [])]
        capsys.readouterr()
        assert run(*argv, "--width", 6, "--out", tmp_path / "wide") == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "would draw 48 weights, over the cap of 40" in err and "Traceback" not in err
        assert not (tmp_path / "wide").exists()
        assert run(*argv, "--width", 5, "--out", tmp_path / "at") == EXIT_OK
        assert load_model(tmp_path / "at").W1.shape == (5, 8)


class TestSelectAttackEval:
    def test_select_writes_trace_and_model(self, workspace, tmp_path):
        _, prefix, model = workspace
        out_model = tmp_path / "sel.txt"
        out_trace = tmp_path / "trace.csv"
        assert run(
            "select", "--model", model, "--data", prefix, "--algorithm", "gmb",
            "--beta", 0.6, "--out-model", out_model, "--out-trace", out_trace,
        ) == EXIT_OK
        trace = out_trace.read_text().splitlines()
        assert trace[0].startswith("# config: cmd=select")
        assert trace[1].startswith("index,delta_r")
        assert trace[-1].startswith("# summary ")
        load_model(out_model)

    def test_select_algorithms_run(self, workspace, tmp_path):
        _, prefix, model = workspace
        for algo in ("gmb", "gmbc", "gmb-fast"):
            assert run(
                "select", "--model", model, "--data", prefix, "--algorithm", algo,
                "--beta", 0.6, "--out-model", tmp_path / f"{algo}.txt",
                "--out-trace", tmp_path / f"{algo}.csv",
            ) == EXIT_OK

    def test_attack_table(self, workspace, tmp_path):
        _, prefix, model = workspace
        out = tmp_path / "attack.csv"
        assert run("attack", "--model", model, "--data", prefix, "--split", "test",
                   "--epsilon", 4.0, "--out", out) == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "example,true_label,clean_label,success,l1_cost,flips"
        assert len(rows) == 101
        for ln in rows[1:]:
            cells = ln.split(",")
            assert cells[3] in ("0", "1")
            assert float(cells[4]) <= 4.0

    def test_eval_curve_consistency(self, workspace, tmp_path):
        _, prefix, model = workspace
        out = tmp_path / "curve.csv"
        assert run("eval", "--model", model, "--data", prefix, "--split", "test",
                   "--epsilons", "0,4,8", "--out", out) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        eps = [float(r[0]) for r in rows]
        clean = [float(r[1]) for r in rows]
        robust = [float(r[2]) for r in rows]
        assert eps == [0.0, 4.0, 8.0]
        assert len(set(clean)) == 1
        assert robust[0] == clean[0]  # zero budget: robust = clean
        assert robust == sorted(robust, reverse=True)

    @pytest.fixture()
    def tiny_logistic(self, tmp_path, monkeypatch):
        """A fixed width-2 logistic model and six test rows, four of them classified correctly,
        written to the working directory as m.txt and d.test.csv."""
        monkeypatch.chdir(tmp_path)
        save_model(BinaryMlp(np.array([[1.0, -2.0, 0.5, 0.0], [0.5, 1.0, -1.0, 1.5]]), np.array([0.25, -0.5]),
                             Activation.LOGISTIC, np.array([2.0, -1.5]), 0.25, fresh_mask(2)), "m.txt")
        X = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1], [1, 1, -1, -1],
                      [-1, -1, -1, -1]])
        save_dataset(LabeledDataset(X, np.array([-1, 1, 1, -1, 1, -1]), split="test"), "d.test.csv")

    def test_attack_golden_bytes(self, tiny_logistic):
        assert run("attack", "--model", "m.txt", "--data", "d", "--epsilon", 6, "--out", "a.csv") == EXIT_OK
        with open("a.csv") as fh:
            assert fh.read() == (
                "# config: cmd=attack data=d epsilon=6.0 model=m.txt split=test\n"
                "example,true_label,clean_label,success,l1_cost,flips\n"
                "0,-1,-1,1,2,1\n"
                "1,1,1,1,4,1;2\n"
                "2,1,1,1,2,1\n"
                "3,-1,-1,1,2,1\n"
                "4,1,-1,0,6,3;0;2\n"
                "5,-1,1,0,6,2;0;3\n"
            )

    def test_eval_golden_bytes(self, tiny_logistic):
        assert run("eval", "--model", "m.txt", "--data", "d", "--epsilons", "0,2,4,6", "--out", "e.csv") == EXIT_OK
        with open("e.csv") as fh:
            assert fh.read() == (
                "# config: cmd=eval data=d epsilons=0,2,4,6 model=m.txt split=test\n"
                "epsilon,clean_accuracy,robust_accuracy,mean_l1_cost_success\n"
                "0,0.66666666666666663,0.66666666666666663,nan\n"
                "2,0.66666666666666663,0.16666666666666666,2\n"
                "4,0.66666666666666663,0,2.5\n"
                "6,0.66666666666666663,0,2.5\n"
            )

    def test_eval_deterministic_bytes(self, workspace, tmp_path):
        _, prefix, model = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("eval", "--model", model, "--data", prefix,
                       "--epsilons", "0,6", "--out", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bounds_report(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--model", model, "--unit", 0, "--p", "1",
                   "--mus", "0,0.1", "--out", out) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[1] == "mu,gamma,bound,bound_clamped,epsilon_be,sigma,e_mu,alpha"
        for ln in rows[2:]:
            cells = [float(c) for c in ln.split(",")]
            assert 0.0 <= cells[3] <= 1.0  # clamped bound is a probability


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert run("chow", "--model", tmp_path / "nope.txt", "--unit", 0,
                   "--out", tmp_path / "o.csv") == EXIT_MISSING_FILE

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert run("chow", "--model", bad, "--unit", 0,
                   "--out", tmp_path / "o.csv") == EXIT_SCHEMA

    def test_dimension_error(self, workspace, tmp_path):
        ws, prefix, _ = workspace
        small = tmp_path / "small.txt"
        save_model(
            BinaryMlp(np.ones((1, 3)), np.zeros(1), Activation.SIGN, np.ones(1), 0.0,
                      fresh_mask(1)),
            small,
        )
        assert run("attack", "--model", small, "--data", prefix, "--split", "test",
                   "--epsilon", 2.0, "--out", tmp_path / "o.csv") == EXIT_DIMENSION

    @pytest.mark.parametrize(
        "command, target, pattern, replacement",
        [
            ("eval", "model", r"^W1\.0=[^,]*", "W1.0=nan"),
            ("stabilize", "model", r"^W1\.0=[^,]*", "W1.0=nan"),
            ("eval", "model", r"^b2=.*", "b2=inf"),
            ("eval", "model", r"^(b1=.*),[^,]*$", r"\1"),
            ("eval", "model", r"^(stabilized_mask=.*),[^,]*$", r"\1"),
            ("eval", "model", r"^stabilized_mask=.", "stabilized_mask=2"),
            ("eval", "data", r"^[+-]1,", "0.5,"),
            # A lone surrogate is written as the byte 0xff, which is not UTF-8.
            ("eval", "model", r"^n=.*", "n=\udcff"),
            ("eval", "data", r"^[+-]1,", "\udcff,"),
        ],
        ids=["nan-weight-eval", "nan-weight-stabilize", "inf-b2", "short-b1", "short-mask",
             "mask-entry-2", "half-feature", "non-utf8-model", "non-utf8-data"],
    )
    def test_invalid_value_is_schema_error(self, workspace, tmp_path, command, target, pattern,
                                           replacement):
        _, prefix, model = workspace
        path = model if target == "model" else tmp_path / "data.test.csv"
        text = re.sub(pattern, replacement, path.read_text(), count=1, flags=re.M)
        path.write_text(text, errors="surrogateescape")
        argv = {
            "eval": ["eval", "--model", model, "--data", prefix, "--epsilons", "0,2"],
            "stabilize": ["stabilize", "--model", model],
        }[command]
        assert run(*argv, "--out", tmp_path / "o.txt") == EXIT_SCHEMA

    def test_capacity_error(self, workspace, tmp_path):
        _, _, model = workspace
        assert run("chow", "--model", model, "--unit", 0, "--cap", 4,
                   "--out", tmp_path / "o.csv") == EXIT_CAPACITY

    def test_param_error(self, workspace, tmp_path):
        _, prefix, model = workspace
        assert run(
            "select", "--model", model, "--data", prefix, "--beta", 1.5,
            "--out-model", tmp_path / "m.txt", "--out-trace", tmp_path / "t.csv",
        ) == EXIT_PARAMS

    def test_mc_sample_cap(self, workspace, tmp_path, capsys):
        _, prefix, model = workspace
        # 1e-200 squares to 0; the sample count must still trip the cap.
        for eps in (1e-9, 1e-150, 1e-200):
            assert run(
                "select", "--model", model, "--data", prefix, "--beta", 0.0, "--chow-mode", "mc",
                "--chow-epsilon", eps, "--out-model", tmp_path / "m.txt", "--out-trace", tmp_path / "t.csv",
            ) == EXIT_CAPACITY
            assert not (tmp_path / "m.txt").exists()
            assert len(capsys.readouterr().err) < 100

    def test_non_finite_bound_report_is_param_error(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        out = tmp_path / "o.csv"
        # mu=1e308 is finite, but at p=1 its gamma overflows.
        assert run("bounds", "--model", model, "--unit", 0, "--p", "1",
                   "--mus", "0,1e308", "--out", out) == EXIT_PARAMS
        captured = capsys.readouterr()
        assert "non-finite bound report" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen-data", "--kind", "planted-ltf", "--n", "0"], "--n"),
            (["gen-data", "--kind", "planted-mlp", "--teacher-width", "0"], "--teacher-width"),
            (["train", "--width", "0"], "--width"),
            (["train", "--epochs", "-1"], "--epochs"),
            (["train", "--batch-size", "0"], "--batch-size"),
            (["adv-train", "--width", "-3"], "--width"),
            (["adv-train", "--at-epochs", "-1"], "--at-epochs"),
            (["gen-data", "--kind", "planted-ltf", "--train", "0"], "--train"),
            (["gen-data", "--kind", "planted-ltf", "--val", "0"], "--val"),
            (["gen-data", "--kind", "planted-ltf", "--test", "0"], "--test"),
            (["gen-data", "--kind", "planted-ltf", "--train=-5"], "--train"),
        ],
        ids=["n", "teacher-width", "width", "epochs", "batch-size", "adv-width", "at-epochs", "train-0",
             "val-0", "test-0", "train-neg"],
    )
    def test_out_of_range_integer_is_param_error(self, workspace, tmp_path, capsys, argv, flag):
        _, prefix, _ = workspace
        out = tmp_path / "out" / "o"
        out.parent.mkdir()
        data = [] if argv[0] == "gen-data" else ["--data", prefix]
        with pytest.raises(SystemExit) as exc:
            run(*argv, *data, "--out", out)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least" in err and "Traceback" not in err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen-data", "--kind", "planted-ltf", "--noise", "nan"], "--noise"),
            (["gen-data", "--kind", "planted-ltf", "--noise", "3"], "--noise"),
            (["gen-data", "--kind", "planted-ltf", "--noise=-0.1"], "--noise"),
            (["train", "--lr", "nan"], "--lr"),
            (["adv-train", "--lr=-0.5"], "--lr"),
            (["adv-train", "--at-epsilon", "inf"], "--at-epsilon"),
            (["adv-train", "--at-epsilon", "nan"], "--at-epsilon"),
            (["adv-train", "--at-epsilon=-2"], "--at-epsilon"),
            (["chow", "--unit", "0", "--chow-delta", "5"], "--chow-delta"),
            (["chow", "--unit", "0", "--chow-delta", "0"], "--chow-delta"),
            (["bounds", "--unit", "0", "--chow-delta", "1"], "--chow-delta"),
            (["chow", "--unit", "0", "--chow-epsilon", "0"], "--chow-epsilon"),
            (["stabilize", "--chow-epsilon", "inf"], "--chow-epsilon"),
            (["select", "--algorithm", "gmbc", "--a-bar", "nan"], "--a-bar"),
            (["select", "--a-bar", "inf"], "--a-bar"),
            (["select", "--a-bar", "0"], "--a-bar"),
            (["stabilize", "--p", "0.5"], "--p"),
            (["stabilize", "--p", "abc"], "--p"),
            (["select", "--p", "0.5"], "--p"),
            (["select", "--p", "abc"], "--p"),
            (["bounds", "--unit", "0", "--p", "0.5"], "--p"),
            (["bounds", "--unit", "0", "--p", "abc"], "--p"),
        ],
        ids=["noise-nan", "noise-3", "noise-neg", "lr-nan", "lr-neg", "at-epsilon-inf", "at-epsilon-nan",
             "at-epsilon-neg", "chow-delta-5", "chow-delta-0", "chow-delta-1", "chow-epsilon-0",
             "chow-epsilon-inf", "a-bar-nan", "a-bar-inf", "a-bar-0", "stabilize-p-half", "stabilize-p-abc",
             "select-p-half", "select-p-abc", "bounds-p-half", "bounds-p-abc"],
    )
    def test_out_of_range_float_is_param_error(self, workspace, tmp_path, capsys, argv, flag):
        _, prefix, model = workspace
        out = tmp_path / "out"
        out.mkdir()
        inputs = {
            "gen-data": [], "train": ["--data", prefix], "adv-train": ["--data", prefix],
            "chow": ["--model", model], "bounds": ["--model", model], "stabilize": ["--model", model],
            "select": ["--model", model, "--data", prefix, "--beta", 0.0, "--out-model", out / "m"],
        }[argv[0]]
        outputs = ["--out-trace", out / "t"] if argv[0] == "select" else ["--out", out / "o"]
        with pytest.raises(SystemExit) as exc:
            run(*argv, *inputs, *outputs)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, dest, valid",
        [
            (["gen-data", "--kind", "planted-ltf", "--out", "o", "--noise"], "noise", ["0", "1", "0.25"]),
            (["train", "--data", "d", "--out", "o", "--lr"], "lr", ["0", "0.5"]),
            (["adv-train", "--data", "d", "--out", "o", "--at-epsilon"], "at_epsilon", ["0", "20"]),
            (["chow", "--model", "m", "--unit", "0", "--out", "o", "--chow-delta"], "chow_delta",
             ["1e-300", "0.5", "0.999"]),
            (["chow", "--model", "m", "--unit", "0", "--out", "o", "--chow-epsilon"], "chow_epsilon",
             ["1e-200", "0.05", "7"]),
            (["select", "--model", "m", "--data", "d", "--beta", "0", "--out-model", "m",
              "--out-trace", "t", "--a-bar"], "a_bar", ["1e-3", "2"]),
        ],
        ids=["noise", "lr", "at-epsilon", "chow-delta", "chow-epsilon", "a-bar"],
    )
    def test_in_range_float_parses_as_float(self, argv, dest, valid):
        # Closed ends are accepted, and the value is the plain float, so the
        # config header records it as before.
        for text in valid:
            value = getattr(build_parser().parse_args([*argv, text]), dest)
            assert type(value) is float and value == float(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--epsilons", "inf"],
            ["eval", "--epsilons", "0,2,nan"],
            ["attack", "--epsilon", "inf"],
            ["attack", "--epsilon=-inf"],
            ["bounds", "--unit", "0", "--mus", "inf"],
            ["bounds", "--unit", "0", "--mus", "0,-inf"],
        ],
        ids=["eval-inf", "eval-nan", "attack-inf", "attack-neg-inf", "bounds-inf", "bounds-neg-inf"],
    )
    def test_non_finite_number_is_param_error(self, workspace, tmp_path, capsys, argv):
        _, prefix, model = workspace
        out = tmp_path / "o.csv"
        data = [] if argv[0] == "bounds" else ["--data", prefix]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--model", model, *data, "--out", out)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert "not a finite number" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["attack", "--epsilon", "abc"], "--epsilon"),
            (["eval", "--epsilons", "0,abc"], "--epsilons"),
            (["train", "--width", "1.5"], "--width"),
        ],
        ids=["attack-epsilon", "eval-epsilons", "train-width"],
    )
    def test_unparsable_number_is_param_error(self, workspace, tmp_path, capsys, argv, flag):
        _, prefix, model = workspace
        out = tmp_path / "o.csv"
        model_flag = [] if argv[0] == "train" else ["--model", model]
        with pytest.raises(SystemExit) as exc:
            run(*argv, *model_flag, "--data", prefix, "--out", out)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"argument {flag}: not a number: " in err and "Traceback" not in err
        assert re.search(r"\b_\w", err) is None  # no Python name such as _number
        assert not out.exists()

    def test_zero_row_unit(self, workspace, tmp_path, capsys):
        # select leaves the unit out with a warning; chow and bounds refuse it as degenerate.
        _, prefix, model = workspace
        net = load_model(model)
        W1 = net.W1.copy()
        W1[1] = 0.0
        zero = tmp_path / "zero.txt"
        save_model(BinaryMlp(W1, net.b1, net.act, net.W2, net.b2, net.stabilized_mask), zero)
        trace = tmp_path / "t.csv"
        capsys.readouterr()
        assert run("select", "--model", zero, "--data", prefix, "--beta", 0.0, "--p", 2,
                   "--out-model", tmp_path / "m.txt", "--out-trace", trace) == EXIT_OK
        out, err = capsys.readouterr()
        mask = load_model(tmp_path / "m.txt").stabilized_mask
        assert not mask[1] and mask.sum() == net.t - 1
        assert f"accepted {net.t - 1}/{net.t} units" in out
        assert "warning: unit 1 is degenerate (zero weight vector" in err
        lines = trace.read_text().splitlines()
        assert not any(ln.startswith("1,") for ln in lines)
        assert "# warning: unit 1 is degenerate (zero weight vector" in "\n".join(lines)
        assert f"accepted={net.t - 1} " in lines[-1] and "warnings=1" in lines[-1]
        for argv in (["chow"], ["bounds", "--p", 2]):
            capsys.readouterr()
            assert run(*argv, "--model", zero, "--unit", 1, "--out", tmp_path / "o.csv") == EXIT_DEGENERATE
            assert "zero weight vector" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, target",
        [("gen-data", "--out", "missing"), ("train", "--out", "missing"),
         ("select-model", "--out-model", "missing"), ("select-trace", "--out-trace", "missing"),
         ("train", "--out", "directory"), ("select-model", "--out-model", "directory"),
         ("select-trace", "--out-trace", "directory"), ("gen-data", "--out", "p.validation.csv"),
         ("gen-data-uniformize", "--out", "p.covmodel.txt")],
        ids=["gen-data---out", "train---out", "select-model---out-model", "select-trace---out-trace",
             "train-into-directory", "select-model-into-directory", "select-trace-into-directory",
             "gen-data-split-into-directory", "gen-data-uniformize-covmodel-into-directory"],
    )
    def test_missing_output_directory_is_param_error(self, workspace, tmp_path, capsys, monkeypatch,
                                                     command, flag, target):
        # An output in a missing directory, or one that is a directory, is refused
        # before any input is loaded or any model trained, and nothing is written;
        # for gen-data, whose --out is a prefix, that holds for each file it names.
        _, prefix, model = workspace
        out = tmp_path / "out"
        out.mkdir()
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, np.eye(3), delimiter=",")
        if target == "missing":
            missing, blocked = out / "nodir" / "o", None
        elif target == "directory":
            missing = blocked = out
        else:
            missing, blocked = out / "p", out / target
            blocked.mkdir()
        work = []
        for name in ("load_dataset", "load_model", "train_sgd"):
            monkeypatch.setattr(cli, name, lambda *a, **k: work.append(a))
        monkeypatch.setattr(uniformize, "fit", lambda *a, **k: work.append(a))
        argv = {
            "gen-data": ["gen-data", "--kind", "planted-ltf", "--out", missing],
            "gen-data-uniformize": ["gen-data", "--kind", "uniformize", "--input", raw, "--out", missing],
            "train": ["train", "--data", prefix, "--out", missing],
            "select-model": ["select", "--model", model, "--data", prefix, "--beta", 0.0,
                             "--out-model", missing, "--out-trace", out / "t"],
            "select-trace": ["select", "--model", model, "--data", prefix, "--beta", 0.0,
                             "--out-model", out / "m", "--out-trace", missing],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        reason = "no writable directory" if blocked is None else f"is a directory: '{blocked}'"
        assert f"argument {flag}: {reason}" in err and "Traceback" not in err
        assert work == [] and list(out.iterdir()) == ([] if blocked in (None, out) else [blocked])

    def test_degenerate_error(self, tmp_path):
        # A constant unit has a zero coefficient vector; the p=2 bound report
        # cannot normalize it.
        net = BinaryMlp(
            np.array([[0.2, 0.1]]), np.array([-5.0]), Activation.SIGN,
            np.ones(1), 0.0, fresh_mask(1),
        )
        model = tmp_path / "const.txt"
        save_model(net, model)
        assert run("bounds", "--model", model, "--unit", 0, "--p", "2",
                   "--mus", "0", "--out", tmp_path / "o.csv") == EXIT_DEGENERATE


# Ordered bounds and texts mostly near each other, so that many draws are accepted.
_BOUND = st.one_of(st.sampled_from([-math.inf, 0.0, 1.0, math.inf]), st.floats(-100, 100), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    convert=st.sampled_from([int, float]),
    bounds=st.lists(_BOUND, min_size=2, max_size=2).map(sorted),
    lo_open=st.booleans(),
    hi_open=st.booleans(),
    text=st.one_of(
        st.integers(-200, 200).map(str),
        st.floats(-200, 200).map(repr),
        st.one_of(
            st.floats().map(repr),
            st.integers().map(str),
            st.text(),
            st.sampled_from(["", "nan", "-inf", "1e999", "1_0", " 7 ", "0x10", "9" * 5000]),
        ),
    ),
)
def test_number_type_returns_a_value_in_its_domain_or_rejects(convert, bounds, lo_open, hi_open, text):
    lo, hi = bounds
    number = cli._number(convert, lo, hi, lo_open=lo_open, hi_open=hi_open)
    try:
        v = number(text)
    except argparse.ArgumentTypeError:
        return
    assert type(v) is convert and -math.inf < v < math.inf
    assert (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)


# Parsed arguments that stay out of the header: dispatch entries and output paths.
_NOT_CONFIG = {"command", "fn", "out", "out_model", "out_trace"}


@pytest.mark.parametrize(
    "name",
    ["gen-data", "gen-data-uniformize", "train", "adv-train", "chow", "stabilize", "select",
     "attack", "eval", "bounds"],
)
def test_config_header_records_every_parsed_argument(workspace, tmp_path, rng, name):
    _, prefix, model = workspace
    raw, o = tmp_path / "raw.csv", tmp_path / "o"
    np.savetxt(raw, rng.normal(size=(50, 2)), delimiter=",")
    argv, outputs = {
        "gen-data": (["gen-data", "--kind", "planted-mlp", "--n", 4, "--train", 20, "--val", 5,
                      "--test", 5, "--out", o], [f"{o}.{s}.csv" for s in ("train", "validation", "test")]),
        "gen-data-uniformize": (["gen-data", "--kind", "uniformize", "--input", raw, "--out", o],
                                [f"{o}.train.csv"]),
        "train": (["train", "--data", prefix, "--width", 3, "--epochs", 1, "--out", o], [o]),
        "adv-train": (["adv-train", "--data", prefix, "--width", 3, "--epochs", 1, "--at-epochs", 1,
                       "--out", o], [o]),
        "chow": (["chow", "--model", model, "--unit", 1, "--out", o], [o]),
        "stabilize": (["stabilize", "--model", model, "--units", "0,1", "--out", o], [o]),
        "select": (["select", "--model", model, "--data", prefix, "--beta", 0.5, "--out-model", o,
                    "--out-trace", f"{o}.csv"], [o, f"{o}.csv"]),
        "attack": (["attack", "--model", model, "--data", prefix, "--epsilon", 2, "--out", o], [o]),
        "eval": (["eval", "--model", model, "--data", prefix, "--epsilons", "0,2", "--out", o], [o]),
        "bounds": (["bounds", "--model", model, "--unit", 0, "--out", o], [o]),
    }[name]
    argv = [str(a) for a in argv]
    assert main(argv) == EXIT_OK
    args = vars(build_parser().parse_args(argv))
    expected = {k: str(v) for k, v in args.items() if k not in _NOT_CONFIG}
    for path in outputs:
        first = first_line(path).rstrip("\n")
        assert first.startswith(f"# config: cmd={args['command']} ")
        pairs = [tok.partition("=")[::2] for tok in first.split()[3:]]
        assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
        assert dict(pairs) == expected


def _header_round_trip(prefix, tmp_path, data):
    """Copy the dataset at `prefix` to the path prefix `data`, train on it, and
    check that shlex splits the model's header back into the parsed arguments."""
    data.parent.mkdir(exist_ok=True)
    for split in ("train", "validation", "test"):
        shutil.copy(f"{prefix}.{split}.csv", f"{data}.{split}.csv")
    argv = ["train", "--data", str(data), "--width", "3", "--epochs", "1", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    tokens = shlex.split(first_line(tmp_path / "o"))
    assert tokens[:3] == ["#", "config:", "cmd=train"]
    args = vars(build_parser().parse_args(argv))
    expected = {k: str(v) for k, v in args.items() if k not in _NOT_CONFIG}
    assert dict(tok.partition("=")[::2] for tok in tokens[3:]) == expected
    assert expected["data"] == str(data)


def test_config_header_quotes_values_with_whitespace(workspace, tmp_path):
    _, prefix, _ = workspace
    _header_round_trip(prefix, tmp_path, tmp_path / "my dir" / "d")


@pytest.mark.parametrize("name", ["it's", '"hi"', "back\\slash", "it's \\ \"all\""])
def test_config_header_quotes_values_with_quotes_and_backslashes(workspace, tmp_path, name):
    _, prefix, _ = workspace
    _header_round_trip(prefix, tmp_path, tmp_path / name / "d")
