import argparse
import contextlib
import gc
import io
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import fourierstab
from fourierstab import cli, fourier, uniformize
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
from fourierstab.errors import SchemaError
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

    def test_teacher_counts_toward_the_cap_only_when_drawn(self, tmp_path, monkeypatch):
        # 15 examples at n=2 draw 30 cells; only planted-mlp also draws its 60 x 2 teacher.
        monkeypatch.setattr(cli, "CELL_CAP", 100)
        argv = ["gen-data", "--n", 2, "--train", 5, "--val", 5, "--test", 5, "--teacher-width", 60]
        for kind, code in (("planted-ltf", EXIT_OK), ("noisy-majority", EXIT_OK), ("planted-mlp", EXIT_CAPACITY)):
            assert run(*argv, "--kind", kind, "--out", tmp_path / kind) == code

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
        model = load_covariance_model(f"{prefix}.covmodel.txt")  # which checks that U is orthogonal
        C = np.cov(X, rowvar=False)
        np.testing.assert_allclose(model.U @ np.diag(model.D) @ model.U.T, C, atol=1e-9 * np.abs(C).max())

    def test_uniformize_caps(self, tmp_path, monkeypatch, capsys):
        # At a cap of 12 cells, a 4x3 input fits and so does 2x3; 4x4 and 5x3 have more
        # rows x d, and 2x4 more d x d, and are refused before fitting.
        monkeypatch.setattr(cli, "CELL_CAP", 12)
        fitted, fit = [], uniformize.fit
        monkeypatch.setattr(uniformize, "fit", lambda raw: fitted.append(raw) or fit(raw))
        rng = np.random.default_rng(0)
        cases = ((4, 4, EXIT_CAPACITY), (5, 3, EXIT_CAPACITY), (4, 3, EXIT_OK), (2, 4, EXIT_CAPACITY), (2, 3, EXIT_OK))
        for rows, d, code in cases:
            raw = tmp_path / f"raw{rows}x{d}.csv"
            np.savetxt(raw, rng.normal(size=(rows, d)), delimiter=",")
            assert run("gen-data", "--kind", "uniformize", "--input", raw, "--out", tmp_path / "u") == code
        err = capsys.readouterr().err
        assert err.count("over the cap of 12 cells") == 3
        assert "input is 4x4," in err and "input is 5x3," in err and "input is 2x4," in err
        assert [a.shape for a in fitted] == [(4, 3), (2, 3)]

    # Malformed as either file; and, as --input only, too few rows or a covariance that overflows.
    _MALFORMED = {"empty": b"", "blank": b"\n \n", "comment-only": b"# nothing\n", "non-numeric": b"1,2\nx,3\n4,5\n",
                  "non-utf8": b"1,2\n\xff,3\n4,5\n", "ragged": b"1,2\n3\n4,5\n"}
    _UNFITTABLE = {"one-row": b"1,2\n", "overflow": b"1e200,1\n-1e200,2\n1e200,3\n"}

    @pytest.mark.parametrize("bad, flag", [
        *(pytest.param(bad, flag, id=f"{name}-{flag}") for name, bad in _MALFORMED.items()
          for flag in ("--input", "--labels")),
        *(pytest.param(bad, "--input", id=f"{name}---input") for name, bad in _UNFITTABLE.items()),
    ])
    def test_malformed_uniformize_input_is_schema_error(self, tmp_path, capsys, flag, bad):
        # The input-file rule: exit 4 naming the file, with no warning and nothing written.
        raw, labels = tmp_path / "raw.csv", tmp_path / "labels.txt"
        raw.write_bytes(b"1,2\n3,-1\n4,5\n")
        labels.write_bytes(b"1\n-1\n1\n")
        target = raw if flag == "--input" else labels
        target.write_bytes(bad if flag == "--input" else bad.replace(b",", b" "))
        out = tmp_path / "out"
        out.mkdir()
        labels_args = ["--labels", labels] if flag == "--labels" else []  # an --input fault needs no labels
        code = run("gen-data", "--kind", "uniformize", "--input", raw, *labels_args, "--out", out / "u")
        err = capsys.readouterr().err
        assert code == EXIT_SCHEMA and f"error: {target}:" in err
        assert "Warning" not in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("labels", [b"1\n-1\n", b"1 1\n-1 1\n1 1\n", b"1 -1 1\n"],
                             ids=["too-few", "two-columns", "one-line"])
    def test_uniformize_needs_one_label_per_row(self, tmp_path, capsys, labels):
        raw, path = tmp_path / "raw.csv", tmp_path / "labels.txt"
        raw.write_bytes(b"1,2\n3,-1\n4,5\n")
        path.write_bytes(labels)
        assert run("gen-data", "--kind", "uniformize", "--input", raw, "--labels", path,
                   "--out", tmp_path / "u") == EXIT_DIMENSION
        assert "labels for 3 input rows" in capsys.readouterr().err
        assert not (tmp_path / "u.train.csv").exists()

    @pytest.mark.parametrize("labels", [b"0\n1\n1\n", b"1\n-1\n0.5\n"], ids=["zero-one", "half"])
    def test_uniformize_labels_other_than_pm1_are_schema_error(self, tmp_path, capsys, monkeypatch, labels):
        # A 0/1 label file is refused naming the file, before any fit, not mapped to +1 by its sign.
        raw, path = tmp_path / "raw.csv", tmp_path / "labels.txt"
        raw.write_bytes(b"1,2\n3,-1\n4,5\n")
        path.write_bytes(labels)
        monkeypatch.setattr(uniformize, "fit", lambda raw: pytest.fail("fitted"))
        assert run("gen-data", "--kind", "uniformize", "--input", raw, "--labels", path,
                   "--out", tmp_path / "u") == EXIT_SCHEMA
        assert f"error: {path}: labels must be exactly +-1" in capsys.readouterr().err
        assert not (tmp_path / "u.train.csv").exists()

    def test_decomposition_that_does_not_reconstruct_is_schema_error(self, tmp_path, monkeypatch, capsys):
        # No input is known to reach this check; eigenvalues off by one part in 1000 stand in for one.
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"1,2\n3,-1\n4,5\n")
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (eigh(A)[0] * 1.001, eigh(A)[1]))
        assert run("gen-data", "--kind", "uniformize", "--input", raw, "--out", tmp_path / "u") == EXIT_SCHEMA
        assert f"error: {raw}: eigendecomposition does not reconstruct the matrix" in capsys.readouterr().err
        assert not (tmp_path / "u.train.csv").exists()

    def test_uniformize_without_input_is_param_error(self, tmp_path, capsys):
        assert run("gen-data", "--kind", "uniformize", "--out", tmp_path / "u") == EXIT_PARAMS
        err = capsys.readouterr().err
        assert "argument --input: required with --kind uniformize" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

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
            "# config: cmd=chow chow_delta=0.01 chow_epsilon=0.05 chow_mode=exact "
            f"chow_seed=0 model={model} unit=0\n"
            "coefficient,value\n"
            "empty,0.25\n"
            "0,0.75\n"
            "1,-0.25\n"
            "2,0.25\n"
            "# mode=exact samples=0 epsilon=0.0 delta=0.0\n"
        )

    def test_exact_chow_cap(self, tmp_path, capsys):
        # No flag bounds n: counting answers a Gaussian unit on 23 or 32 inputs in
        # milliseconds, with the library's bits.
        rng = np.random.default_rng(23)
        for n in (23, 32):
            model, out = tmp_path / f"m{n}.txt", tmp_path / f"c{n}.csv"
            save_model(BinaryMlp(rng.normal(size=(1, n)), rng.normal(size=1), Activation.SIGN, np.ones(1), 0.0,
                                 fresh_mask(1)), model)
            assert run("chow", "--model", model, "--unit", 0, "--out", out) == EXIT_OK
            est = chow_exact(first_layer_ltf(load_model(model), 0).handle(), n)
            rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
            assert [float(ln.split(",")[1]) for ln in rows[1:]] == [est.h_empty, *est.h_vec]
        # --cap is a flag of no command that estimates: it exits 2 at parse time.
        argvs = {"chow": ["--unit", 0, "--out", "o"], "stabilize": ["--out", "o"], "bounds": ["--unit", 0, "--out", "o"],
                 "select": ["--data", "d", "--beta", 0, "--out-model", "o", "--out-trace", "t"]}
        for command, argv in argvs.items():
            with pytest.raises(SystemExit) as exc:
                run(command, "--model", tmp_path / "m23.txt", *argv, "--cap", 22)
            assert exc.value.code == EXIT_PARAMS
            assert "unrecognized arguments: --cap 22" in capsys.readouterr().err

    def test_select_exact_on_24_inputs(self, tmp_path):
        prefix, model = tmp_path / "d", tmp_path / "m.txt"
        assert run("gen-data", "--kind", "planted-ltf", "--n", 24, "--train", 200, "--val", 100, "--test", 100,
                   "--out", prefix) == EXIT_OK
        assert run("train", "--data", prefix, "--width", 4, "--epochs", 2, "--out", model) == EXIT_OK
        out = tmp_path / "sel.txt"
        assert run("select", "--model", model, "--data", prefix, "--beta", 0, "--p", 2, "--chow-mode", "exact",
                   "--out-model", out, "--out-trace", tmp_path / "t.csv") == EXIT_OK
        net, sel = load_model(model), load_model(out)
        assert sel.stabilized_mask.all()
        for j in range(net.t):
            h_vec = chow_exact(first_layer_ltf(net, j).handle(), 24).h_vec
            assert sel.W1[j].tolist() == stabilized_weights(h_vec, PNorm(2.0)).tolist()

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

    def test_bounds_answer_at_large_p_and_n(self, workspace, tmp_path):
        # p = 5000 underflows |h_i| ** (p-1), and at n = 1100 the p=1 alpha sums past 2 ** 1024.
        _, _, model = workspace
        prefix, wide = tmp_path / "wide", tmp_path / "wide.txt"
        assert run("gen-data", "--kind", "planted-ltf", "--n", 1100, "--train", 20, "--val", 5, "--test", 5,
                   "--out", prefix) == EXIT_OK
        assert run("train", "--data", prefix, "--width", 2, "--epochs", 1, "--out", wide) == EXIT_OK
        for argv in ([model, "--p", 5000], [wide, "--p", 1, "--chow-mode", "mc", "--chow-epsilon", 0.5]):
            out = tmp_path / "bounds.csv"
            assert run("bounds", "--unit", 1, "--model", *argv, "--out", out) == EXIT_OK
            cells = np.array([ln.split(",") for ln in out.read_text().splitlines()[2:]], dtype=float)
            assert cells.shape == (4, 8) and np.isfinite(cells[:, :5]).all()


class TestExitCodes:
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("p", ["inf", "Infinity"])
    def test_bounds_refuses_p_inf_at_parse_time(self, workspace, tmp_path, capsys, monkeypatch, mode, p):
        # The bound has no p = inf form, so --p inf is refused before the model is read.
        _, _, model = workspace

        def no_estimate(*args, **kwargs):
            raise AssertionError("a Chow source was called")

        for source in (fourier.ExactChow, fourier.MonteCarloChow):
            monkeypatch.setattr(source, "estimate", no_estimate)
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            run("bounds", "--model", model, "--unit", 0, "--p", p, "--chow-mode", mode, "--out", out)
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"argument --p: must be a number in [1, inf): '{p}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert run("chow", "--model", tmp_path / "nope.txt", "--unit", 0,
                   "--out", tmp_path / "o.csv") == EXIT_MISSING_FILE

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert run("chow", "--model", bad, "--unit", 0,
                   "--out", tmp_path / "o.csv") == EXIT_SCHEMA

    # Each reader: its file's name, a valid file, one number cell in it that a defect replaces
    # the last byte of, the bytes whose removal drops a field or every row, and the command
    # that reads the file (tmp is its directory); no command reads a covariance model.
    _READERS = {
        "load_model": ("m.txt", b"# binary-mlp v1\nn=2\nt=1\nactivation=sign\nb2=0\nW2=1\nb1=0\n"
                       b"stabilized_mask=0\nW1.0=1,-1\n", b"W2=1", b"b2=0\n",
                       lambda path, tmp: ["stabilize", "--model", path, "--out", tmp / "o.txt"]),
        "load_covariance_model": ("c.covmodel.txt", b"# covariance-model v1\nd=2\nmean=0,0\nD=1,1\n"
                                  b"U.0=1,0\nU.1=0,1\n", b"D=1", b"D=1,1\n", None),
        "load_dataset": ("d.train.csv", b"n=2\n+1,-1,+1\n-1,+1,-1\n", b"n=2\n+1", b"+1,-1,+1\n-1,+1,-1\n",
                         lambda path, tmp: ["train", "--data", tmp / "d", "--out", tmp / "o.txt"]),
        "--input": ("raw.csv", b"1,2\n3,-1\n4,5\n", b"1,2", b"1,2\n3,-1\n4,5\n",
                    lambda path, tmp: ["gen-data", "--kind", "uniformize", "--input", path, "--out", tmp / "u"]),
        "--labels": ("labels.txt", b"1\n-1\n1\n", b"-1", b"1\n-1\n1\n",
                     lambda path, tmp: ["gen-data", "--kind", "uniformize", "--input", tmp / "raw.csv",
                                        "--labels", path, "--out", tmp / "u"]),
    }
    _DEFECTS = {"non-utf8": "not a text file", "missing": "missing field '|no rows of numbers",
                "non-numeric": "could not convert string"}

    @pytest.mark.parametrize("defect", _DEFECTS)
    @pytest.mark.parametrize("reader", _READERS)
    def test_defective_input_file_is_schema_error_naming_it_once(self, tmp_path, capsys, reader, defect):
        name, valid, cell, drop, argv = self._READERS[reader]
        (tmp_path / "raw.csv").write_bytes(self._READERS["--input"][1])  # the input beside a labels file
        path = tmp_path / name
        path.write_bytes(valid)
        if argv is None:
            load_covariance_model(path)
        else:
            assert run(*argv(path, tmp_path)) == EXIT_OK
        bad = {"non-utf8": valid.replace(cell, cell[:-1] + b"\xff"), "missing": valid.replace(drop, b""),
               "non-numeric": valid.replace(cell, cell[:-1] + b"x")}[defect]
        path.write_bytes(bad)
        capsys.readouterr()
        if argv is None:
            read = lambda: load_covariance_model(path)
        else:
            args = build_parser().parse_args([str(a) for a in argv(path, tmp_path)])
            read = lambda: args.fn(args)
        with pytest.raises(SchemaError, match=self._DEFECTS[defect]) as info:
            read()
        assert str(info.value).startswith(f"{path}: ") and str(info.value).count(str(path)) == 1
        if argv is not None:
            assert run(*argv(path, tmp_path)) == EXIT_SCHEMA
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count(str(path)) == 1

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

    @pytest.mark.parametrize("command, activation", [("train", "tanh"), ("train", "logistic"),
                                                     ("adv-train", "tanh")])
    def test_diverging_training_is_param_error(self, tmp_path, capsys, command, activation):
        # One epoch at lr=1e308 leaves weights whose forward pass can overflow:
        # the run ends in the model's refusal, without a numpy warning.
        prefix, model = tmp_path / "d", tmp_path / "m.txt"
        assert run("gen-data", "--kind", "planted-ltf", "--n", 6, "--train", 50, "--val", 30, "--test", 30,
                   "--out", prefix) == EXIT_OK
        epochs = "--at-epochs" if command == "adv-train" else "--epochs"
        code = run(command, "--data", prefix, "--width", 3, epochs, 1, "--lr", "1e308", "--batch-size", 1,
                   "--activation", activation, "--out", model)
        err = capsys.readouterr().err
        assert code == EXIT_PARAMS and "non-finite weight" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not model.exists()

    def test_model_whose_margin_overflows_is_schema_error(self, workspace, tmp_path, capsys):
        # Each weight is finite, but their sum, a bound on the margin, is not.
        _, prefix, _ = workspace
        model = tmp_path / "m.txt"
        save_model(BinaryMlp(np.ones((3, 8)), np.zeros(3), Activation.TANH, np.ones(3), 0.0, fresh_mask(3)), model)
        model.write_text(re.sub(r"^W2=.*", "W2=9e307,9e307,9e307", model.read_text(), count=1, flags=re.M))
        with pytest.raises(SchemaError, match="non-finite weight"):
            load_model(model)
        assert run("eval", "--model", model, "--data", prefix, "--epsilons", "0,2",
                   "--out", tmp_path / "o.csv") == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"error: {model}: non-finite weight" in err and err.count(str(model)) == 1
        assert not (tmp_path / "o.csv").exists()

    def test_dataset_without_features_is_schema_error(self, tmp_path, capsys):
        prefix = tmp_path / "z"
        (tmp_path / "z.train.csv").write_text("n=0\n+1\n-1\n")
        assert run("train", "--data", prefix, "--width", 3, "--out", tmp_path / "m.txt") == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'z.train.csv'}: " in err and "feature column" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "m.txt").exists()

    def test_capacity_error(self, tmp_path, capsys):
        # A unit is refused for the work its counting would do: at n = 45 its larger
        # half, 23 inputs, has 2^23 half-sums, over 2^22. No output is written.
        model, out = tmp_path / "m.txt", tmp_path / "o.csv"
        save_model(BinaryMlp(np.ones((1, 45)), np.zeros(1), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1)), model)
        for argv in (["chow", "--unit", 0], ["bounds", "--unit", 0], ["stabilize", "--p", 2]):
            assert run(argv[0], "--model", model, *argv[1:], "--out", out) == EXIT_CAPACITY
            err = capsys.readouterr().err
            assert "half-sums" in err and "Traceback" not in err and len(err) < 120
            assert not out.exists()

    def test_tie_heavy_unit_on_28_inputs_is_answered(self, tmp_path):
        # The tiled one-decimal unit at n = 28 has 11,218,944 sums within its tie
        # band; counting sums exact integers, so none needs deciding one by one.
        model = tmp_path / "m.txt"
        w = np.resize([0.1, 0.2, 0.3, -0.6], 28)
        save_model(BinaryMlp(w[None], np.zeros(1), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1)), model)
        for argv in (["chow", "--unit", 0], ["bounds", "--unit", 0], ["stabilize", "--p", 2]):
            assert run(argv[0], "--model", model, *argv[1:], "--out", tmp_path / f"{argv[0]}.csv") == EXIT_OK
        est = chow_exact(first_layer_ltf(load_model(model), 0).handle(), 28)
        rows = [ln for ln in (tmp_path / "chow.csv").read_text().splitlines() if ln and not ln.startswith("#")]
        assert [float(ln.split(",")[1]) for ln in rows[1:]] == [est.h_empty, *est.h_vec]

    def test_param_error(self, tmp_path, capsys):
        # A flag outside its domain exits 2 when it is parsed, before its command loads
        # an input: every input here is missing, which exits 3 with an in-domain value.
        missing, out = tmp_path / "missing", tmp_path / "out"
        out.mkdir()
        cases = [
            (["select", "--model", missing, "--data", missing, "--out-model", out / "m", "--out-trace", out / "t",
              "--beta"], "2", "0.5"),
            (["attack", "--model", missing, "--data", missing, "--out", out / "o", "--epsilon"], "-1", "0"),
            (["eval", "--model", missing, "--data", missing, "--out", out / "o", "--epsilons"], "0,-2", "0,2"),
            (["gen-data", "--kind", "uniformize", "--input", missing, "--out", out / "d", "--seed"], "-1", "0"),
            (["train", "--data", missing, "--out", out / "o", "--seed"], "-1", "0"),
            (["adv-train", "--data", missing, "--out", out / "o", "--seed"], "-1", "0"),
            (["chow", "--model", missing, "--unit", "0", "--chow-mode", "mc", "--out", out / "o", "--chow-seed"],
             "-1", "0"),
        ]
        for argv, bad, good in cases:
            with pytest.raises(SystemExit) as exc:
                run(*argv, bad)
            assert exc.value.code == EXIT_PARAMS
            err = capsys.readouterr().err
            assert f"argument {argv[-1]}: must be " in err and "Traceback" not in err
            assert run(*argv, good) == EXIT_MISSING_FILE
            capsys.readouterr()
        assert list(out.iterdir()) == []

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
        # mu=-1.78e308 is finite, but unit 3 has h_empty = -1/64, so at p=1 its
        # gamma, about (1 + 1/64) * 1.78e308, overflows.
        assert run("bounds", "--model", model, "--unit", 3, "--p", "1",
                   "--mus", "0,-1.78e308", "--out", out) == EXIT_PARAMS
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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["eval", "--epsilons", ""], "--epsilons"),
            (["stabilize", "--units", ""], "--units"),
            (["stabilize", "--units", "1,,2"], "--units"),
            (["stabilize", "--units", "0,1.5"], "--units"),
        ],
        ids=["epsilons-empty", "units-empty", "units-empty-item", "units-fraction"],
    )
    def test_list_flag_is_checked_at_parse_time(self, workspace, tmp_path, capsys, monkeypatch, argv, flag):
        # Each item must be a number before the model is loaded; the config header keeps the list as given.
        _, prefix, model = workspace
        loaded = []
        monkeypatch.setattr(cli, "load_model", lambda *a: loaded.append(a))
        data = ["--data", prefix] if argv[0] == "eval" else []
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--model", model, *data, "--out", tmp_path / "o")
        assert exc.value.code == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"argument {flag}: not a number: " in err and "Traceback" not in err
        assert loaded == [] and not (tmp_path / "o").exists()

    def test_unit_index_out_of_range_is_dimension_error(self, workspace, tmp_path, capsys):
        # --units is checked for integers at parse time, and for their range by the library.
        _, _, model = workspace
        assert run("stabilize", "--model", model, "--units", "0,6", "--out", tmp_path / "o") == EXIT_DIMENSION
        assert "unit index 6 out of range for width 6" in capsys.readouterr().err

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

    @staticmethod
    def _model_with_zero_unit(path):
        W1 = np.array([[1.0, -1.0, 0.5], [0.0, 0.0, 0.0], [0.5, 1.0, 1.0]])
        save_model(BinaryMlp(W1, np.zeros(3), Activation.SIGN, np.ones(3), 0.0, fresh_mask(3)), path)

    def test_stabilize_reports_a_skipped_unit_as_a_warning(self, tmp_path, capsys):
        # Under tier-1's error::UserWarning the library's warning would raise; the CLI prints it.
        self._model_with_zero_unit(tmp_path / "zero.txt")
        capsys.readouterr()
        assert run("stabilize", "--model", tmp_path / "zero.txt", "--units", "all", "--p", 1,
                   "--out", tmp_path / "o.txt") == EXIT_OK
        out, err = capsys.readouterr()
        assert "warning: unit 1 is degenerate (zero weight vector" in err and "UserWarning" not in err
        assert "stabilized 2 unit(s)" in out
        assert load_model(tmp_path / "o.txt").stabilized_mask.tolist() == [True, False, True]

    def test_stabilize_warning_is_no_error_under_w_error(self, tmp_path):
        self._model_with_zero_unit(tmp_path / "zero.txt")
        src = os.path.dirname(os.path.dirname(fourierstab.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fourierstab.cli", "stabilize", "--model", "zero.txt",
             "--units", "all", "--p", "1", "--out", "o.txt"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "warning: unit 1 is degenerate" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("algorithm", ["gmb", "gmb-fast", "gmbc"])
    def test_select_checks_width_before_any_estimate(self, workspace, tmp_path, capsys, monkeypatch, algorithm):
        # The data has n=8; a model of n=10 is refused before its gain pass estimates a unit.
        _, prefix, _ = workspace
        wide = tmp_path / "wide.txt"
        rng = np.random.default_rng(0)
        save_model(BinaryMlp(rng.normal(size=(4, 10)), np.zeros(4), Activation.SIGN, np.ones(4), 0.0,
                             fresh_mask(4)), wide)
        calls = []
        monkeypatch.setattr(fourier, "chow_exact", lambda *a, **k: calls.append(a) or chow_exact(*a, **k))
        capsys.readouterr()
        assert run("select", "--model", wide, "--data", prefix, "--algorithm", algorithm, "--beta", 0.5,
                   "--p", 2, "--out-model", tmp_path / "m.txt", "--out-trace", tmp_path / "t.csv") == EXIT_DIMENSION
        assert "dataset dimension 8 != model dimension 10" in capsys.readouterr().err
        assert calls == []

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

    def test_outputs_naming_one_file_are_param_error(self, workspace, tmp_path, capsys):
        # The trace would replace the model, by the same name or through a symlink.
        _, prefix, model = workspace
        link = tmp_path / "link.txt"
        link.symlink_to(tmp_path / "same.txt")
        for trace in (tmp_path / "same.txt", link):
            with pytest.raises(SystemExit) as exc:
                run("select", "--model", model, "--data", prefix, "--beta", 0.0,
                    "--out-model", tmp_path / "same.txt", "--out-trace", trace)
            assert exc.value.code == EXIT_PARAMS
            err = capsys.readouterr().err
            assert f"argument --out-trace: '{trace}' is the same file as '{tmp_path / 'same.txt'}'" in err
            assert not (tmp_path / "same.txt").exists()

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


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_config_value_with_a_line_break_is_param_error(workspace, tmp_path, capsys, brk):
    # str.splitlines would read such a '# config:' line as two lines, the second not a
    # header, so the value is refused at parse time whatever the command would load.
    _, prefix, _ = workspace
    data = tmp_path / f"nl{brk}data"
    for split in ("train", "validation", "test"):
        shutil.copy(f"{prefix}.{split}.csv", f"{data}.{split}.csv")
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", data, "--width", 3, "--epochs", 1, "--out", tmp_path / "o")
    assert exc.value.code == EXIT_PARAMS
    assert "argument --data: a line break would split the '# config:' line" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_in_process_freezes_nothing(workspace, tmp_path):
    _, prefix, model = workspace
    frozen = gc.get_freeze_count()
    assert run("eval", "--model", model, "--data", prefix, "--epsilons", "0,2", "--out", tmp_path / "e.csv") == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_run_freezes_then_exits_with_mains_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_PARAMS)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == EXIT_PARAMS
    assert calls == ["freeze", "main"]


def test_files_are_utf8_in_any_locale(tmp_path):
    # Under the ASCII POSIX locale, with any defaulted text encoding an error, a non-ASCII
    # path gives the same files, '# config:' lines included, as under a UTF-8 locale.
    src = os.path.dirname(os.path.dirname(fourierstab.__file__))
    commands = (
        ["gen-data", "--kind", "planted-ltf", "--n", "6", "--train", "40", "--val", "10", "--test", "10",
         "--out", "données/d"],
        ["train", "--data", "données/d", "--width", "3", "--epochs", "2", "--out", "données/m.txt"],
        ["bounds", "--model", "données/m.txt", "--unit", "1", "--p", "2", "--out", "données/b.csv"],
    )
    locales = {"posix": {"LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
               "utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}}
    for name, env in locales.items():
        (tmp_path / name / "données").mkdir(parents=True)
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "fourierstab.cli", *argv],
                cwd=tmp_path / name, env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True)
            assert proc.returncode == EXIT_OK, proc.stderr
    posix, utf8 = tmp_path / "posix" / "données", tmp_path / "utf8" / "données"
    names = sorted(f.name for f in utf8.iterdir())
    assert len(names) == 5 and sorted(f.name for f in posix.iterdir()) == names
    assert all((posix / f).read_bytes() == (utf8 / f).read_bytes() for f in names)
    assert "data=données/d " in (posix / "m.txt").read_text(encoding="utf-8")


# --- every numeric flag at extreme values ------------------------------------

def _subparsers() -> dict:
    """command -> its parser, from build_parser()."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_flags() -> dict:
    """command -> the flags whose text the parser converts (numbers and number lists)."""
    return {name: sorted(a.option_strings[0] for a in sp._actions if a.type is not None)
            for name, sp in _subparsers().items()}


def test_readme_names_only_parser_flags():
    """Every --flag that README.md names, in an inline code span or a fourierstab
    command of a code block, is a flag of some subcommand, so a removed flag
    cannot stay documented."""
    flags = {s for sp in _subparsers().values() for a in sp._actions for s in a.option_strings}
    parts = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split("```")
    spans = [span for prose in parts[::2] for span in re.findall(r"`([^`\n]+)`", prose)]
    commands = [ln for block in parts[1::2] for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("fourierstab ")]
    named = {flag for text in spans + commands for flag in re.findall(r"(?<![\w-])--[\w-]+", text)}
    assert named and named <= flags, sorted(named - flags)


_NUMERIC_FLAGS = _numeric_flags()
# 0, negative, NaN, +-inf, huge and ordinary values, in the spellings a user might type.
_EXTREME_VALUES = st.one_of(
    st.integers(1, 8).map(str),
    st.floats(0.01, 4.0).map(repr),
    st.sampled_from(["0", "-0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300", "5e-324", str(10**30),
                     "1.0000001", "5000", "0,2", ""]),
    st.floats().map(repr),
    st.integers().map(str),
)
# Each adds run time in proportion to its value and no memory, so no cap bounds it.
_RUN_LENGTH_FLAGS = ("--epochs", "--at-epochs")
_DOCUMENTED_EXITS = {EXIT_OK, EXIT_PARAMS, EXIT_MISSING_FILE, EXIT_SCHEMA, EXIT_DIMENSION, EXIT_CAPACITY,
                     EXIT_DEGENERATE}


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    """A planted-LTF dataset at n=6 and a width-3 model trained on it."""
    root = tmp_path_factory.mktemp("numeric-flags")
    prefix, model = root / "d", root / "m.txt"
    assert run("gen-data", "--kind", "planted-ltf", "--n", 6, "--train", 40, "--val", 20, "--test", 20,
               "--out", prefix) == EXIT_OK
    assert run("train", "--data", prefix, "--width", 3, "--epochs", 2, "--out", model) == EXIT_OK
    return prefix, model


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(_NUMERIC_FLAGS)), data=st.data())
def test_numeric_flags_exit_with_a_documented_code(small_workspace, tmp_path_factory, command, data):
    prefix, model = small_workspace
    flags = data.draw(st.lists(st.sampled_from(_NUMERIC_FLAGS[command]), min_size=1, max_size=2))
    values = [data.draw(_EXTREME_VALUES, label=flag) for flag in flags]
    for flag, value in zip(flags, values):
        if flag in _RUN_LENGTH_FLAGS:
            assume(not value.lstrip("-").isdigit() or int(value) <= 50)
    out = tmp_path_factory.mktemp("out")
    base = {
        "gen-data": ["--kind", data.draw(st.sampled_from(["planted-ltf", "planted-mlp", "noisy-majority"])),
                     "--n", "4", "--train", "20", "--val", "10", "--test", "10"],
        # 40 rows in batches of 8, so that a drawn --lr takes more than one step.
        "train": ["--data", prefix, "--width", "3", "--epochs", "1", "--batch-size", "8"],
        "adv-train": ["--data", prefix, "--width", "3", "--at-epochs", "1", "--batch-size", "8"],
        "chow": ["--model", model, "--unit", "0"],
        "stabilize": ["--model", model],
        "select": ["--model", model, "--data", prefix, "--beta", "0",
                   "--algorithm", data.draw(st.sampled_from(["gmb", "gmbc", "gmb-fast"]))],
        "attack": ["--model", model, "--data", prefix, "--epsilon", "2"],
        "eval": ["--model", model, "--data", prefix, "--epsilons", "0,2"],
        "bounds": ["--model", model, "--unit", "0", "--p", "2"],
    }[command]
    if "--chow-epsilon" in _NUMERIC_FLAGS[command]:
        base += ["--chow-mode", data.draw(st.sampled_from(["exact", "mc"]))]
    outputs = ["--out-model", out / "m", "--out-trace", out / "t"] if command == "select" else ["--out", out / "o"]
    argv = [command, *base, *(f"{flag}={value}" for flag, value in zip(flags, values)), *outputs]
    stderr = io.StringIO()
    # Caps at sizes this test can afford to reach: a huge value trips one before any work.
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "CELL_CAP", 1 << 12)
        mp.setattr(fourier, "ROW_CAP", 1 << 14)
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    event(f"{command} exit {code}")
    assert code in _DOCUMENTED_EXITS and "Traceback" not in stderr.getvalue()
    if code != EXIT_OK:
        return
    if command == "gen-data":
        for split in ("train", "validation", "test"):
            load_dataset(f"{out / 'o'}.{split}.csv", split=split)
    elif command in ("train", "adv-train", "stabilize", "select"):
        load_model(out / ("m" if command == "select" else "o"))
    for path in out.iterdir():
        assert first_line(path).startswith(f"# config: cmd={command} ")
