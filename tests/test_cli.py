import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import cli, training
from lotshare import data as data_mod
from lotshare import masking, model, nn
from lotshare.cli import comparison_table, main
from lotshare.errors import ConfigError, DataError, ShapeError
from lotshare.config import load_experiment, parse_kv_text
from lotshare.metrics import MetricsReport
from lotshare.model import Task
from test_data import DIGIT_ID, per_line_load, per_row_save
from test_model import scatter_cross_backward, scatter_table_grads

BASE_CFG = """\
mode = connection_share
model.embedding_dim = 3
model.hidden_dims = 8,6
train.batch_size = 64
train.n_pruning = 2
data.n_users = 40
data.n_items = 40
data.field_cardinalities = 8,8,8,8
data.latent_dim = 4
data.n_impressions = 600
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(BASE_CFG)
    return str(p)


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_files(out):
    """Every path under the run dir ``out``, relative to it, sorted."""
    return sorted(str(p.relative_to(out)) for p in out.rglob("*"))


class TestGenerateData:
    def test_writes_tsv_and_sidecar(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "d"
        rc, stdout, _ = run(capsys, "generate-data", "--config", cfg_file,
                            "--out", str(out))
        assert rc == 0
        ds = data_mod.load(out / "dataset.tsv")
        assert ds.tasks[Task.CTR].n == 600
        spec_text = (out / "dataset.tsv.spec").read_text()
        assert "data.n_impressions = 600" in spec_text
        assert all(key.startswith("data.") for key in parse_kv_text(spec_text))
        assert "#impression" in stdout and "#conversion" in stdout
        again = tmp_path / "again.tsv"
        rc, _, _ = run(capsys, "generate-data", "--config", str(out / "dataset.tsv.spec"),
                       "--out", str(tmp_path), "--out-file", str(again))
        assert rc == 0
        assert again.read_bytes() == (out / "dataset.tsv").read_bytes()

    def test_not_utf8_out_dir(self, tmp_path, cfg_file):
        """The sidecar spec holds only data.* lines, so the directory's name
        need not be UTF-8. In a fresh process, whose stdout takes the name
        that pytest's UTF-8 capture refuses."""
        out = tmp_path / os.fsdecode(b"d\xff")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from lotshare.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "generate-data", "--config", cfg_file,
             "--out", str(out)], capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert data_mod.load(out / "dataset.tsv").tasks[Task.CTR].n == 600

    def test_block_writer_round_trip(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "d"
        assert run(capsys, "generate-data", "--config", cfg_file, "--out", str(out))[0] == 0
        ds = data_mod.generate(load_experiment(cfg_file).synth)
        per_row_save(ds, tmp_path / "per_row.tsv")
        assert (out / "dataset.tsv").read_bytes() == (tmp_path / "per_row.tsv").read_bytes()
        loaded = data_mod.load(out / "dataset.tsv")
        assert loaded == ds == per_line_load(out / "dataset.tsv")

    @pytest.mark.parametrize("dir_name", ["data.tsv", "data.tsv.spec"])
    def test_out_file_a_directory_exit_3_before_generating(self, tmp_path, cfg_file, capsys,
                                                           monkeypatch, dir_name):
        def fail(*args):
            raise AssertionError("generate ran")

        monkeypatch.setattr(data_mod, "generate", fail)
        (tmp_path / dir_name).mkdir()
        rc, stdout, err = run(capsys, "generate-data", "--config", cfg_file,
                              "--out-file", str(tmp_path / "data.tsv"))
        assert (rc, stdout) == (3, "")
        assert err == f"data error: cannot write file {tmp_path / dir_name}: it is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["exp.cfg", dir_name])


class TestTrain:
    def test_connection_share_run_dir(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        rc, stdout, _ = run(capsys, "train", "--config", cfg_file, "--out", str(out))
        assert rc == 0
        cfg_text = (out / "config.cfg").read_text()
        assert cfg_text == load_experiment(cfg_file, {"output_dir": str(out)}).to_text()
        report = MetricsReport.from_kv_lines((out / "report.kv").read_text().splitlines())
        assert (load_experiment(str(out / "config.cfg")).fingerprint()
                == report.config_fingerprint)
        cfg2, params = model.load_checkpoint(out / "model.ckpt")
        assert cfg2.mlp_dims[-1] == 1
        for task in ("ctr", "cvr"):
            for rnd in range(3):
                assert (out / "masks" / f"{task}_round{rnd}.mask").exists()
            masking.load_mask(out / f"mask_{task}.mask")
        log = (out / "train.log").read_text()
        assert "stage=warmup" in log and "stage=mask_gen" in log and "stage=joint" in log
        kv = (out / "report.kv").read_text()
        assert "mode=connection_share" in kv
        assert "ctr_auc" in kv and "cvr_mse" in kv
        assert "run written to" in stdout

    def test_single_task_writes_two_checkpoints(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        rc, _, _ = run(capsys, "train", "--config", cfg_file,
                       "--mode", "single_task", "--out", str(out))
        assert rc == 0
        assert (out / "ctr.ckpt").exists() and (out / "cvr.ckpt").exists()
        assert not (out / "model.ckpt").exists()
        assert not (out / "masks").exists()

    def test_single_task_over_connection_share_dir(self, tmp_path, cfg_file, capsys):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run(capsys, "train", "--config", cfg_file, "--out", str(reused))[0] == 0
        for out in (reused, fresh):
            assert run(capsys, "train", "--config", cfg_file, "--mode", "single_task",
                       "--out", str(out))[0] == 0
        assert run_files(reused) == run_files(fresh)
        assert (reused / "report.kv").read_bytes() == (fresh / "report.kv").read_bytes()

    def test_rerun_removes_only_stale_artifacts(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", "--config", cfg_file, "--out", str(out))[0] == 0
        foreign = ["notes.txt", "model.ckpt.bak", "masks/ctr_round01.mask",
                   "masks/cvr_round2.mask.old", "masks/readme"]
        for name in foreign:
            (out / name).write_text("kept")
        assert run(capsys, "train", "--config", cfg_file, "--set", "train.n_pruning=1",
                   "--out", str(out))[0] == 0
        want = {"config.cfg", "model.ckpt", "mask_ctr.mask", "mask_cvr.mask", "train.log",
                "report.txt", "report.kv", "masks", *foreign}
        want |= {f"masks/{t}_round{r}.mask" for t in ("ctr", "cvr") for r in (0, 1)}
        assert run_files(out) == sorted(want)
        assert all((out / name).read_text() == "kept" for name in foreign)
        assert run(capsys, "train", "--config", cfg_file, "--mode", "layer_share",
                   "--out", str(out))[0] == 0
        assert not (out / "mask_ctr.mask").exists()
        assert not (out / "masks" / "ctr_round0.mask").exists()
        assert (out / "masks" / "readme").read_text() == "kept"

    def test_train_on_dataset_file(self, tmp_path, cfg_file, capsys):
        dpath = tmp_path / "d.tsv"
        run(capsys, "generate-data", "--config", cfg_file, "--out", str(tmp_path),
            "--out-file", str(dpath))
        out = tmp_path / "run"
        rc, _, _ = run(capsys, "train", "--config", cfg_file,
                       "--dataset", str(dpath), "--out", str(out))
        assert rc == 0
        assert f"dataset = {dpath}" in (out / "config.cfg").read_text().splitlines()
        # the fingerprint hashes the dataset file's bytes, not its path
        report = MetricsReport.from_kv_lines((out / "report.kv").read_text().splitlines())
        with_ds = load_experiment(cfg_file, {"dataset": str(dpath)})
        assert f"dataset = {dpath}" in with_ds.to_kv_lines()
        assert report.config_fingerprint == with_ds.fingerprint()
        assert report.config_fingerprint != load_experiment(cfg_file, {}).fingerprint()
        assert (out / "model.ckpt").exists()

    def test_fingerprint_hashes_dataset_bytes_not_path(self, tmp_path, cfg_file):
        a, b = tmp_path / "a" / "d.tsv", tmp_path / "b" / "other.tsv"
        a.parent.mkdir()
        b.parent.mkdir()
        payload = b"0\ttrain\t1\t0\t3\t1\t2\t0\n"
        a.write_bytes(payload)
        b.write_bytes(payload)
        fa = load_experiment(cfg_file, {"dataset": str(a)}).fingerprint()
        assert fa == load_experiment(cfg_file, {"dataset": str(b)}).fingerprint()
        assert fa != load_experiment(cfg_file, {}).fingerprint()

    def test_fingerprint_without_dataset_is_stable(self):
        # values of the releases that hashed "dataset = <path>": configs
        # without a dataset must keep them
        assert load_experiment(None).fingerprint() == "4c5f39fe52515463"
        assert load_experiment(None, {"mode": "layer_share", "train.q": "0.3"}
                               ).fingerprint() == "71481c6f3031058c"

    def test_fingerprint_changes_with_one_dataset_byte(self, tmp_path, cfg_file):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"0\ttrain\t1\t0\t3\t1\t2\t0\n")
        before = load_experiment(cfg_file, {"dataset": str(path)}).fingerprint()
        path.write_bytes(b"0\ttrain\t1\t0\t3\t1\t2\t1\n")
        assert load_experiment(cfg_file, {"dataset": str(path)}).fingerprint() != before

    def test_missing_dataset_exit_3(self, cfg_file, capsys):
        rc, _, _ = run(capsys, "train", "--config", cfg_file,
                       "--dataset", "/nonexistent/x.tsv")
        assert rc == 3

    def test_not_utf8_dataset_exit_3(self, tmp_path, cfg_file, capsys):
        p = tmp_path / "d.tsv"
        p.write_bytes(b"cardinalities\t8,8,8,8\nctr\t1\t0,1,2,3\ttrain\n"
                      b"ctr\t0\t0,1,2,3\tval\xff\n")
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {p}:3: not valid UTF-8\n"

    def test_not_utf8_config_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"mode = single_task\n# caf\xe9\n")
        rc, stdout, err = run(capsys, "train", "--config", str(p), "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (2, "")
        assert err == (f"config error: cannot read config file {p}: 'utf-8' codec can't "
                       "decode byte 0xe9 in position 24: invalid continuation byte\n")
        assert not (tmp_path / "run").exists()

    def test_not_utf8_out_dir_exit_2_before_training(self, tmp_path, cfg_file, capsys,
                                                     monkeypatch):
        """config.cfg, written last, could not hold the directory's name."""
        def fail(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(training, "train_model", fail)
        out = tmp_path / os.fsdecode(b"run\xff")
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err == "config error: output_dir is not valid UTF-8, so config.cfg cannot hold it\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["f", "f/run/x"])
    def test_out_under_a_file_exit_3_before_loading_data(self, tmp_path, cfg_file, capsys,
                                                         monkeypatch, out):
        def fail(*args):
            raise AssertionError("data loaded")

        monkeypatch.setattr(data_mod, "generate", fail)
        (tmp_path / "f").write_text("x")
        out = tmp_path / out
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--out", str(out))
        assert (rc, stdout) == (3, "")
        assert err == (f"data error: cannot create directory {out}: {tmp_path / 'f'} "
                       "is not a directory\n")
        assert (tmp_path / "f").read_text() == "x"

    def test_dataset_tab_count_checked_per_line_exit_3(self, tmp_path, cfg_file, capsys):
        # a 0-tab row and then a 6-tab row hold 8 fields, as two 4-field rows do
        rows = ["ctr", "1\t0,1,2,3\ttrain\tcvr\t0.5\t0,1,2,3\ttrain"]
        assert data_mod._row_block(rows, (8,) * 4) is None
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t8,8,8,8\nctr\t1\t0,1,2,3\ttrain\n" + "\n".join(rows) + "\n")
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (3, "")
        assert err == f"data error: {p}:3: expected 4 tab-separated fields\n"

    @pytest.mark.parametrize("mode", ["connection_share", "single_task"])
    @pytest.mark.parametrize("text", ["", "cardinalities\t8,8,8,8\n"])
    def test_dataset_without_rows_exit_3(self, tmp_path, cfg_file, capsys, text, mode):
        p = tmp_path / "d.tsv"
        p.write_text(text)
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--mode", mode, "--out", str(tmp_path / "run"))
        assert (rc, stdout, err) == (3, "", f"data error: {p}: no train rows for task ctr\n")
        assert not (tmp_path / "run").exists()

    def test_zero_cardinality_exit_3(self, tmp_path, cfg_file, capsys):
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t0,8,8,8\n")
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (3, "")
        assert err == (f"data error: {p}:1: field cardinalities must all be >= 1: "
                       "(0, 8, 8, 8)\n")

    @pytest.mark.parametrize("command", ["train", "generate-data"])
    def test_out_of_memory_exit_2(self, tmp_path, cfg_file, capsys, monkeypatch, command):
        """A step of synthetic generation that runs out of memory, as a
        ``data.n_impressions`` of 10**13 would, exits 2 naming the sizes."""
        def fail(seed, impression_ids):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(data_mod, "split_of", fail)
        rc, stdout, err = run(capsys, command, "--config", cfg_file, "--set",
                              "data.n_impressions=700", "--out", str(tmp_path / "out"))
        assert (rc, stdout) == (2, "")
        assert err == ("config error: synthetic data from the data.* config does not fit in "
                       "memory: data.n_impressions=700, data.n_users=40, data.n_items=40, "
                       "data.latent_dim=4, data.field_cardinalities=8,8,8,8\n")

    @pytest.mark.parametrize("command,args,err", [
        ("train", ["--seed", "-1"], "train.seed must be >= 0, got -1"),
        ("train", ["--set", "train.seed=-1"], "train.seed must be >= 0, got -1"),
        ("train", ["--set", "data.seed=-3"], "data.seed must be >= 0, got -3"),
        ("generate-data", ["--seed", "-1"], "train.seed must be >= 0, got -1"),
        ("train", ["--mode", "layer_share", "--set", "train.joint_epochs=-2"],
         "train.joint_epochs must be >= 0, got -2"),
        ("train", ["--set", "train.warmup_epochs=-1"], "train.warmup_epochs must be >= 0, got -1"),
        ("train", ["--set", "train.mask_epochs=-1"], "train.mask_epochs must be >= 0, got -1"),
    ])
    def test_negative_seed_or_epoch_count_exit_2(self, tmp_path, cfg_file, capsys, command,
                                                 args, err):
        """Not an internal error from numpy's seeding, and not a run dir of
        an untrained model."""
        out = tmp_path / "out"
        rc, stdout, got = run(capsys, command, "--config", cfg_file, *args, "--out", str(out))
        assert (rc, stdout, got) == (2, "", f"config error: {err}\n")
        assert not out.exists()

    def test_dataset_out_of_memory_exit_3(self, tmp_path, cfg_file, capsys, monkeypatch):
        """A TSV whose rows do not fit in memory exits 3 naming its path."""
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t8,8,8,8\nctr\t1\t5,1,2,3\ttrain\n")

        def fail(lines, cards):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(data_mod, "_row_block", fail)
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout, err) == (3, "", f"data error: {p}: the dataset does not fit in "
                                            "memory\n")
        assert not (tmp_path / "run").exists()

    def test_model_out_of_memory_exit_2(self, tmp_path, cfg_file, capsys, monkeypatch):
        """Parameters that do not fit in memory exit 2 naming their count."""
        def fail(self, layout, flat=None):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(model.ModelParams, "__init__", fail)
        rc, stdout, err = run(capsys, "train", "--config", cfg_file,
                              "--out", str(tmp_path / "run"))
        size = model.ParamLayout.of(load_experiment(cfg_file).model_config((8, 8, 8, 8))).size
        assert (rc, stdout, err) == (2, "", f"config error: a model of {size} parameters "
                                            "does not fit in memory\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("place", ["adam", "snapshot"])
    def test_training_state_out_of_memory_exit_2(self, tmp_path, cfg_file, capsys,
                                                 monkeypatch, place):
        """Adam's moments and clocks, or the rewind snapshot, that do not fit
        in memory exit 2 naming the parameter count."""
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        class NumpyWithoutZerosLike:   # numpy as nn sees it, zeros_like failing
            zeros_like = staticmethod(fail)

            def __getattr__(self, name):
                return getattr(np, name)

        if place == "adam":
            monkeypatch.setattr(nn, "np", NumpyWithoutZerosLike())
            what = "the Adam state of"
        else:
            monkeypatch.setattr(model.ModelParams, "copy", fail)
            what = "the rewind snapshot of"
        rc, stdout, err = run(capsys, "train", "--config", cfg_file,
                              "--out", str(tmp_path / "run"))
        size = model.ParamLayout.of(load_experiment(cfg_file).model_config((8, 8, 8, 8))).size
        assert (rc, stdout, err) == (2, "", f"config error: {what} a model of {size} "
                                            "parameters does not fit in memory\n")
        assert not (tmp_path / "run").exists()

    def test_checkpoint_out_of_memory_exit_3(self, tmp_path, cfg_file, capsys, monkeypatch):
        """A checkpoint whose payload does not fit in memory exits 3 naming
        its path."""
        out = tmp_path / "st"
        assert run(capsys, "train", "--config", cfg_file, "--mode", "single_task",
                   "--out", str(out))[0] == 0
        cands = tmp_path / "cands.tsv"
        cands.write_text("0,1,2,3\t10\n")

        def fail(self, layout, flat=None):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(model.ModelParams, "__init__", fail)
        ckpt = out / "ctr.ckpt"
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", str(ckpt),
                              "--cvr-checkpoint", str(out / "cvr.ckpt"), str(cands))
        assert (rc, stdout, err) == (3, "", f"data error: {ckpt}: the checkpoint does not "
                                            "fit in memory\n")

    def test_non_finite_learning_rate_exit_2(self, tmp_path, cfg_file, capsys):
        """Rejected as the config is read, before a step runs."""
        out = tmp_path / "run"
        rc, stdout, err = run(capsys, "train", "--config", cfg_file,
                              "--set", "train.learning_rate=nan", "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err == ("config error: config key train.learning_rate: bad value 'nan': "
                       "not a finite number\n")
        assert not out.exists()

    def test_tables_past_int64_exit_3(self, tmp_path, cfg_file, capsys):
        """The check runs before any table is allocated."""
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t99999999999999999999,8,8,8\n"
                     "ctr\t1\t5,1,2,3\ttrain\ncvr\t0.5\t5,1,2,3\ttrain\n")
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (3, "")
        assert err == (f"data error: {p}: cardinalities (99999999999999999999, 8, 8, 8) "
                       "with embedding_dim 3 give tables past 2**60 entries\n")

    def test_prune_sweep_dataset_without_rows_exit_3(self, tmp_path, cfg_file, capsys):
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t8,8,8,8\n")
        rc, stdout, err = run(capsys, "prune-sweep", "--config", cfg_file, "--dataset", str(p),
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout, err) == (3, "", f"data error: {p}: no train rows for task ctr\n")

    @staticmethod
    def _split_edit(tmp_path, cfg_file, capsys, edit):
        """A generated dataset TSV with ``edit`` applied to each row's fields
        (task, label, ids, split); a row it returns None for is dropped."""
        path = tmp_path / "d.tsv"
        run(capsys, "generate-data", "--config", cfg_file, "--out", str(tmp_path),
            "--out-file", str(path))
        head, *rows = path.read_text().splitlines()
        kept = [edit(row.split("\t")) for row in rows]
        path.write_text("\n".join([head] + ["\t".join(r) for r in kept if r]) + "\n")
        return path

    @pytest.mark.parametrize("command,mode,edit,problem", [
        *[("train", mode, "no_cvr", "no train rows for task cvr")
          for mode in ("single_task", "layer_share", "connection_share", "neuron_share")],
        ("prune-sweep", "connection_share", "no_cvr", "no train rows for task cvr"),
        *[("train", mode, "ctr_test_1", "ctr test labels are all 1; AUC needs both classes")
          for mode in ("single_task", "layer_share", "connection_share", "neuron_share")],
        *[("train", mode, "no_cvr_test", "no test rows for task cvr")
          for mode in ("single_task", "layer_share", "connection_share", "neuron_share")],
        *[(command, mode, "no_cvr_val", "no val rows for task cvr")
          for command, mode in (("train", "connection_share"), ("train", "neuron_share"),
                                ("prune-sweep", "neuron_share"))],
        *[(command, mode, "ctr_val_0", "ctr val labels are all 0; AUC needs both classes")
          for command, mode in (("train", "connection_share"), ("train", "neuron_share"),
                                ("prune-sweep", "connection_share"))],
    ])
    def test_degenerate_split_exit_3(self, tmp_path, cfg_file, capsys, command, mode, edit,
                                     problem):
        edits = {
            "no_cvr": lambda r: None if r[0] == "cvr" else r,
            "ctr_test_1": lambda r: [r[0], "1", *r[2:]] if r[0] == "ctr" and r[3] == "test"
            else r,
            "no_cvr_val": lambda r: None if r[0] == "cvr" and r[3] == "val" else r,
            "no_cvr_test": lambda r: None if r[0] == "cvr" and r[3] == "test" else r,
            "ctr_val_0": lambda r: [r[0], "0", *r[2:]] if r[0] == "ctr" and r[3] == "val"
            else r,
        }
        path = self._split_edit(tmp_path, cfg_file, capsys, edits[edit])
        rc, stdout, err = run(capsys, command, "--config", cfg_file, "--dataset", str(path),
                              "--mode", mode, "--out", str(tmp_path / "run"))
        assert (rc, stdout, err) == (3, "", f"data error: {path}: {problem}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,mode,n,problem", [
        ("train", "single_task", 1, "no train rows for task cvr"),
        ("train", "layer_share", 20, "no test rows for task cvr"),
        ("train", "layer_share", 8, "no test rows for task ctr"),
        ("train", "connection_share", 5, "no val rows for task cvr"),
        ("prune-sweep", "neuron_share", 3, "no train rows for task cvr"),
        ("prune-sweep", "connection_share", 11,
         "ctr val labels are all 1; AUC needs both classes"),
    ])
    def test_degenerate_synthetic_split_exit_2(self, tmp_path, cfg_file, capsys, command,
                                               mode, n, problem):
        """Generated data gets the split checks a TSV gets; the data.*
        config is at fault, so the exit is a config error."""
        rc, stdout, err = run(capsys, command, "--config", cfg_file, "--mode", mode,
                              "--set", f"data.n_impressions={n}",
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout, err) == (
            2, "", f"config error: synthetic data from the data.* config: {problem}\n")
        assert not (tmp_path / "run").exists()

    def test_degenerate_synthetic_default_exits_before_warmup(self, tmp_path, capsys):
        with mock.patch.object(training, "warmup") as warmup:
            rc, stdout, err = run(capsys, "train", "--set", "data.n_impressions=20",
                                  "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (2, "") and not warmup.called
        assert err == ("config error: synthetic data from the data.* config: "
                       "no test rows for task cvr\n")

    def test_prune_sweep_reads_no_test_rows(self, tmp_path, cfg_file, capsys):
        """prune-sweep reads train and val only: a TSV without test rows,
        or generated data whose CTR test labels are one class, sweeps."""
        path = self._split_edit(tmp_path, cfg_file, capsys,
                                lambda r: None if r[3] == "test" else r)
        for source in (("--dataset", str(path)), ("--set", "data.n_impressions=20")):
            curve = tmp_path / "sweep.tsv"
            rc, _, err = run(capsys, "prune-sweep", "--config", cfg_file, *source,
                             "--out", str(tmp_path / "run"), "--curve-file", str(curve))
            assert (rc, err) == (0, "")
            assert len(curve.read_text().splitlines()) == 1 + 2 * 3
            curve.unlink()

    @pytest.mark.parametrize("mode", ["single_task", "layer_share"])
    def test_modes_without_search_need_no_val_rows(self, tmp_path, cfg_file, capsys, mode):
        path = self._split_edit(tmp_path, cfg_file, capsys,
                                lambda r: None if r[3] == "val" else r)
        rc, _, err = run(capsys, "train", "--config", cfg_file, "--dataset", str(path),
                         "--mode", mode, "--out", str(tmp_path / "run"))
        assert (rc, err) == (0, "")

    def test_huge_synthetic_cardinality_exit_2(self, tmp_path, cfg_file, capsys):
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--set",
                              "data.field_cardinalities=4611686018427387904,8",
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (2, "")
        assert err == ("config error: synthetic data from the data.* config: cardinalities "
                       "(4611686018427387904, 8) with embedding_dim 3 give tables past "
                       "2**60 entries\n")

    def test_huge_hidden_width_exit_2(self, tmp_path, cfg_file, capsys):
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--set",
                              "model.hidden_dims=4611686018427387904",
                              "--out", str(tmp_path / "run"))
        assert (rc, stdout) == (2, "")
        assert err.startswith("config error: a model of ")
        assert err.endswith(" parameters is past the 2**60 entries of one float64 array\n")

    def test_unknown_key_exit_2(self, cfg_file, capsys):
        rc, _, err = run(capsys, "train", "--config", cfg_file, "--set", "bogus=1")
        assert rc == 2 and "bogus" in err

    def test_bad_mode_exit_2(self, cfg_file, capsys):
        rc, _, _ = run(capsys, "train", "--config", cfg_file, "--mode", "everything")
        assert rc == 2

    def test_zero_hidden_width_exit_2(self, cfg_file, capsys):
        rc, _, err = run(capsys, "train", "--config", cfg_file,
                         "--set", "model.hidden_dims=8,0")
        assert rc == 2 and "config error: MLP width 0" in err

    @pytest.mark.parametrize("file_seeds", [
        "seed = 1\n", "train.seed = 1\ndata.seed = 1\n", "seed = 2\ntrain.seed = 1\n"])
    @pytest.mark.parametrize("flag", [("--seed", "5"), ("--set", "seed=5")])
    def test_flag_seed_beats_file_seeds(self, tmp_path, file_seeds, flag, capsys):
        path = tmp_path / "seeded.cfg"
        path.write_text(BASE_CFG + file_seeds)
        out = tmp_path / "run"
        rc, _, _ = run(capsys, "train", "--config", str(path), *flag, "--out", str(out),
                       "--mode", "single_task")
        assert rc == 0
        kv = parse_kv_text((out / "config.cfg").read_text())
        assert kv["train.seed"] == kv["data.seed"] == "5"

    def test_seed_key_precedence(self, tmp_path):
        path = tmp_path / "seeded.cfg"
        path.write_text("seed = 1\ntrain.seed = 2\n")
        exp = load_experiment(str(path))
        assert (exp.train.seed, exp.synth.seed) == (2, 1)  # specific key wins in a source
        exp = load_experiment(str(path), {"seed": "5", "data.seed": "6"})
        assert (exp.train.seed, exp.synth.seed) == (5, 6)


class TestExitCodes:
    @pytest.mark.parametrize("exc,code,err", [
        pytest.param(ConfigError("bad key"), 2, "config error: bad key", id="ConfigError"),
        pytest.param(DataError("bad row"), 3, "data error: bad row", id="DataError"),
        pytest.param(OSError("refused"), 3, "data error: refused", id="OSError"),
        pytest.param(ValueError("bare"), 4, "internal error: ValueError: bare", id="ValueError"),
        pytest.param(KeyError("k"), 4, "internal error: KeyError: 'k'", id="KeyError"),
        pytest.param(ShapeError("(2,) vs (3,)"), 4, "internal error: ShapeError: (2,) vs (3,)",
                     id="ShapeError"),
    ])
    def test_error_type_picks_exit_code(self, tmp_path, capsys, monkeypatch, exc, code, err):
        def fail(spec):
            raise exc

        monkeypatch.setattr(data_mod, "generate", fail)
        rc, stdout, got = run(capsys, "generate-data", "--out", str(tmp_path))
        assert (rc, stdout, got) == (code, "", err + "\n")


@pytest.mark.filterwarnings("error")
class TestDivergence:
    """A learning rate that drives training apart exits 2 on the first step
    whose loss is not finite or past ``training.MAX_STEP_LOSS``, naming the
    stage, task, epoch and step, and writes no run dir. No numpy warning
    comes before that line: any warning here fails the test."""

    @pytest.mark.parametrize("mode,lr,where,loss", [
        ("connection_share", "1e300", "warmup, task ctr, epoch 0, step 1", "nan at weight 0.7"),
        ("connection_share", "1e100", "warmup, task ctr, epoch 0, step 1", "nan at weight 0.7"),
        ("connection_share", "1e6", "warmup, task ctr, epoch 0, step 1",
         "3.41252e+30 at weight 0.7"),
        ("layer_share", "1e6", "joint training, task ctr, epoch 0, step 1",
         "4.13406e+30 at weight 0.7"),
        ("single_task", "1e6", "single-task training, task ctr, epoch 0, step 1",
         "1.71871e+31 at weight 1"),
    ])
    def test_train_exits_2(self, tmp_path, cfg_file, capsys, mode, lr, where, loss):
        out = tmp_path / "run"
        rc, stdout, err = run(capsys, "train", "--config", cfg_file, "--mode", mode,
                              "--set", f"train.learning_rate={lr}", "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err == (f"config error: training diverged in {where}: loss {loss} is not "
                       "finite or above 1e+06 times the weight; try a lower "
                       "train.learning_rate\n")
        assert not out.exists()

    def test_process_stderr_is_the_error_line(self, tmp_path, cfg_file):
        """In a fresh process, which prints every warning once, stderr holds
        the error line alone."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "PYTHONWARNINGS": "default"}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from lotshare.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "train", "--config", cfg_file, "--set",
             "train.learning_rate=1e100", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("config error: training diverged in warmup, task ctr, epoch 0, "
                               "step 1: loss nan at weight 0.7 is not finite or above 1e+06 "
                               "times the weight; try a lower train.learning_rate\n")

    def test_prune_sweep_exits_2(self, tmp_path, cfg_file, capsys):
        rc, _, err = run(capsys, "prune-sweep", "--config", cfg_file, "--set",
                         "train.learning_rate=1e6", "--out", str(tmp_path / "sweep"))
        assert (rc, err) == (2, "config error: training diverged in warmup, task ctr, "
                                "epoch 0, step 1: loss 3.41252e+30 at weight 0.7 is not finite "
                                "or above 1e+06 times the weight; try a lower "
                                "train.learning_rate\n")


class TestCompare:
    def _train(self, capsys, cfg_file, tmp_path, mode):
        out = tmp_path / mode
        rc, _, _ = run(capsys, "train", "--config", cfg_file,
                       "--mode", mode, "--out", str(out))
        assert rc == 0
        return str(out)

    def test_table_from_runs(self, tmp_path, cfg_file, capsys):
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        conn = self._train(capsys, cfg_file, tmp_path, "connection_share")
        rc, stdout, _ = run(capsys, "compare", conn, single)
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("Model")
        assert lines[1].startswith("single_task")  # baseline row first
        assert any(l.startswith("connection_share") for l in lines)

    def test_without_single_task_exit_2(self, tmp_path, cfg_file, capsys):
        conn = self._train(capsys, cfg_file, tmp_path, "layer_share")
        rc, _, _ = run(capsys, "compare", conn)
        assert rc == 2

    def test_dir_without_report_exit_3(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "compare", str(tmp_path))
        assert rc == 3

    def test_corrupt_report_exit_3(self, tmp_path, cfg_file, capsys):
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        kv = tmp_path / "single_task" / "report.kv"
        lines = kv.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("metric.ctr_auc="))
        lines[at] = "metric.ctr_auc=abc"
        kv.write_text("\n".join(lines) + "\n")
        rc, stdout, err = run(capsys, "compare", single)
        assert rc == 3 and stdout == ""
        assert err == f"data error: {kv}: line {at + 1}: bad value in 'metric.ctr_auc=abc'\n"

    def test_report_not_utf8_exit_3(self, tmp_path, cfg_file, capsys):
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        kv = tmp_path / "single_task" / "report.kv"
        kv.write_bytes(kv.read_bytes() + b"note.x=\xff\n")
        rc, stdout, err = run(capsys, "compare", single)
        assert rc == 3 and stdout == ""
        assert err == f"data error: {kv}: not valid UTF-8\n"

    @pytest.mark.parametrize("key", ["metric.cvr_mse", "sparsity.ctr"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_report_value_exit_3(self, tmp_path, cfg_file, capsys, key, value):
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        conn = self._train(capsys, cfg_file, tmp_path, "connection_share")
        kv = tmp_path / "single_task" / "report.kv"
        lines = kv.read_text().splitlines() + [f"{key}={value}"]
        kv.write_text("\n".join(lines) + "\n")
        rc, stdout, err = run(capsys, "compare", conn, single)
        assert rc == 3 and stdout == ""
        assert err == f"data error: {kv}: line {len(lines)}: bad value in '{key}={value}'\n"

    @pytest.mark.parametrize("text", ["", "metric.ctr_auc=0.5\n", "mode=\n",
                                      "mode=two_tower\nmetric.ctr_auc=0.5\n", "a=b\nc\n"])
    def test_report_without_known_mode_exit_3(self, tmp_path, cfg_file, capsys, text):
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        other = tmp_path / "other"
        other.mkdir()
        (other / "report.kv").write_text(text)
        rc, stdout, err = run(capsys, "compare", single, str(other))
        assert rc == 3 and stdout == ""
        assert err == (f"data error: {other / 'report.kv'}: "
                       "no 'mode=' line naming a sharing mode\n")

    def test_table_formatting_known_values(self):
        single = MetricsReport(mode="single_task",
                               metrics={"cvr_mse": 0.13688, "ctr_auc": 0.78572})
        conn = MetricsReport(mode="connection_share",
                             metrics={"cvr_mse": 0.13226, "ctr_auc": 0.78874})
        table = comparison_table([conn, single])
        row = next(l for l in table.splitlines() if l.startswith("connection_share"))
        assert "0.13226" in row and "0.78874" in row
        assert "+0.00462 (+3.38%)" in row and "+0.00302 (+0.38%)" in row

    def test_zero_single_task_metric_shows_na(self, tmp_path, cfg_file, capsys):
        """A relative gain over a single-task metric of 0 is undefined: its
        cell reads n/a, as for a missing metric, and the other gain prints."""
        single = self._train(capsys, cfg_file, tmp_path, "single_task")
        conn = self._train(capsys, cfg_file, tmp_path, "connection_share")
        kv = tmp_path / "single_task" / "report.kv"
        lines = [("metric.cvr_mse=0" if line.startswith("metric.cvr_mse=") else line)
                 for line in kv.read_text().splitlines()]
        kv.write_text("\n".join(lines) + "\n")
        rc, stdout, err = run(capsys, "compare", conn, single)
        assert (rc, err) == (0, "")
        head, base, row = stdout.splitlines()
        assert base.split()[:2] == ["single_task", "0.00000"]
        cells = row.split()
        assert cells[0] == "connection_share" and cells[3] == "n/a"
        assert cells[4].startswith(("+", "-")) and cells[5].endswith("%)")

    def test_missing_metric_shows_na(self):
        single = MetricsReport(mode="single_task",
                               metrics={"cvr_mse": 0.2, "ctr_auc": 0.7})
        other = MetricsReport(mode="neuron_share", metrics={"cvr_mse": 0.19})
        table = comparison_table([single, other])
        assert "n/a" in table


class TestPruneSweep:
    def test_curve_rows(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "sweep"
        rc, stdout, _ = run(capsys, "prune-sweep", "--config", cfg_file,
                            "--out", str(out))
        assert rc == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert lines[0] == "task\tround\tproportion_left\tval_metric"
        assert len(lines) == 1 + 2 * 3  # (n_pruning + 1) rounds x 2 tasks
        first = lines[1].split("\t")
        assert first[1] == "0" and float(first[2]) == 1.0

    def test_curve_file_makes_its_directory(self, tmp_path, cfg_file, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        curve = tmp_path / "missing" / "dir" / "sweep.tsv"
        rc, stdout, _ = run(capsys, "prune-sweep", "--config", cfg_file,
                            "--curve-file", str(curve))
        assert rc == 0
        assert stdout.endswith(f"curve written to {curve}\n")
        assert len(curve.read_text().splitlines()) == 1 + 2 * 3

    def test_curve_file_leaves_no_output_dir(self, tmp_path, cfg_file, capsys, monkeypatch):
        """With --curve-file, the default output_dir (runs/run) is not made."""
        monkeypatch.chdir(tmp_path)
        rc, _, _ = run(capsys, "prune-sweep", "--config", cfg_file,
                       "--curve-file", "sweep.tsv")
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "sweep.tsv"]

    def test_curve_file_under_a_file_exit_3_before_warmup(self, tmp_path, cfg_file, capsys,
                                                          monkeypatch):
        def fail(*args):
            raise AssertionError("warmup ran")

        monkeypatch.setattr(training, "warmup", fail)
        (tmp_path / "f").write_text("x")
        curve = tmp_path / "f" / "sweep.tsv"
        rc, stdout, err = run(capsys, "prune-sweep", "--config", cfg_file,
                              "--curve-file", str(curve))
        assert (rc, stdout) == (3, "")
        assert err == (f"data error: cannot create directory {curve.parent}: "
                       f"{tmp_path / 'f'} is not a directory\n")

    def test_curve_file_a_directory_exit_3_before_warmup(self, tmp_path, cfg_file, capsys,
                                                         monkeypatch):
        def fail(*args):
            raise AssertionError("warmup ran")

        monkeypatch.setattr(training, "warmup", fail)
        curve = tmp_path / "sweep.tsv"
        curve.mkdir()
        rc, stdout, err = run(capsys, "prune-sweep", "--config", cfg_file,
                              "--curve-file", str(curve))
        assert (rc, stdout) == (3, "")
        assert err == f"data error: cannot write file {curve}: it is a directory\n"

    def test_baseline_mode_rejected(self, cfg_file, capsys):
        rc, _, _ = run(capsys, "prune-sweep", "--config", cfg_file,
                       "--mode", "layer_share")
        assert rc == 2


class TestScore:
    @pytest.fixture
    def ckpts(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "st"
        rc, _, _ = run(capsys, "train", "--config", cfg_file,
                       "--mode", "single_task", "--out", str(out))
        assert rc == 0
        return str(out / "ctr.ckpt"), str(out / "cvr.ckpt")

    def _cands(self, tmp_path, lengths):
        rng = np.random.default_rng(0)
        p = tmp_path / "cands.tsv"
        rows = [",".join(map(str, rng.integers(0, 8, 4))) + f"\t{l:g}"
                for l in lengths]
        p.write_text("# header comment\n" + "\n".join(rows) + "\n")
        return str(p)

    def test_top_k_output(self, tmp_path, ckpts, capsys):
        cands = self._cands(tmp_path, [10, 200, 30, 40, 55])
        rc, stdout, _ = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                            "--cvr-checkpoint", ckpts[1], "-k", "3", cands)
        assert rc == 0
        lines = [l for l in stdout.splitlines() if l.startswith("rank=")]
        assert len(lines) == 3
        scores = [float(l.split("score=")[1].split()[0]) for l in lines]
        assert scores == sorted(scores, reverse=True)

    def test_tab_count_checked_per_line_exit_3(self, tmp_path, ckpts, capsys):
        # a 0-tab line and then a 2-tab line hold 4 halves, as two candidates do
        lines = ["1,2,3,4", "5\t1,2,3,4\t6"]
        assert cli._candidate_block(lines, CARDS) is None
        p = tmp_path / "cands.tsv"
        p.write_text("0,1,2,3\t10\n" + "\n".join(lines) + "\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], str(p))
        assert (rc, stdout) == (3, "")
        assert err == f"data error: {p}:2: expected 'ids<TAB>length'\n"

    def test_length_scale_invariant_ordering(self, tmp_path, ckpts, capsys):
        lengths = [10, 200, 30, 40, 55]
        a = self._cands(tmp_path, lengths)
        _, out_a, _ = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                          "--cvr-checkpoint", ckpts[1], "-k", "5", a)
        doubled = self._cands(tmp_path, [2 * l for l in lengths])
        _, out_b, _ = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                          "--cvr-checkpoint", ckpts[1], "-k", "5", doubled)
        order_a = [l.split("index=")[1].split()[0] for l in out_a.splitlines()
                   if l.startswith("rank=")]
        order_b = [l.split("index=")[1].split()[0] for l in out_b.splitlines()
                   if l.startswith("rank=")]
        assert order_a == order_b

    def test_out_of_range_id_is_data_error(self, tmp_path, ckpts, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("0,0,0,1000000\t10\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], str(p))
        assert (rc, stdout) == (3, "")
        assert err == f"data error: {p}:1: id 1000000 out of range for field 3 (cardinality 8)\n"

    def test_malformed_candidates_exit_3(self, tmp_path, ckpts, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("0,1,2\t30\n")  # 3 ids for 4 fields
        rc, _, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                         "--cvr-checkpoint", ckpts[1], str(p))
        assert rc == 3

    @pytest.mark.parametrize("length", ["nan", "inf", "+Infinity", "NaN"])
    def test_non_finite_length_exit_3(self, tmp_path, ckpts, capsys, length):
        p = tmp_path / "bad.tsv"
        p.write_text(f"# header\n0,1,2,3\t10\n\n1,2,3,4\t{length}\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], str(p))
        assert rc == 3 and stdout == ""
        assert f"data error: {p}:4: video length must be finite" in err

    def test_oversized_id_exit_3(self, tmp_path, ckpts, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("0,1,2,3\t10\n1,2,99999999999999999999,4\t10\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], str(p))
        assert rc == 3 and stdout == ""
        assert err == (f"data error: {p}:2: id 99999999999999999999 out of range for field 2 "
                       "(cardinality 8)\n")

    @pytest.mark.parametrize("body,line", [
        (b"0,1,2,3\t10\n1,2,3,4\t1\xff\n", 2),
        (b"0,1,2,3\t10\n\n# caf\xe9\n1,2,3,4\t20\n", 3),  # a comment must be UTF-8 too
        (b"0,1,2,3\t10\n\n# caf\xe9\n1,2,3,4\tx\n", 3),  # before a later bad line
    ])
    def test_not_utf8_candidates_exit_3(self, tmp_path, ckpts, capsys, body, line):
        p = tmp_path / "bad.tsv"
        p.write_bytes(body)
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], str(p))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {p}:{line}: not valid UTF-8\n"

    def test_power_overflow_exit_2(self, tmp_path, ckpts, capsys):
        p = tmp_path / "c.tsv"
        p.write_text("0,1,2,3\t10\n1,2,3,4\t600\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], "--gamma", "200", str(p))
        assert rc == 2 and stdout == ""
        assert err == ("config error: candidate 1: length**gamma overflows "
                       "(length=600.0, gamma=200.0)\n")

    def test_product_overflow_exit_2(self, tmp_path, ckpts, capsys):
        # each power is finite (pctr**-50 < 1e300 for pctr > 1e-6), their
        # product is not (pctr**-50 > 2 for pctr < 0.98)
        p = tmp_path / "c.tsv"
        p.write_text("0,1,2,3\t10\n1,2,3,4\t1e308\n")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], "--alpha=-50", str(p))
        assert rc == 2 and stdout == ""
        assert err == ("config error: candidate 1: pctr**alpha * pcvr**beta * length**gamma "
                       "overflows (alpha=-50.0, beta=1.0, gamma=1.0)\n")

    @pytest.mark.parametrize("option,value", [("--alpha", "-inf"), ("--beta", "nan"),
                                              ("--gamma", "inf")])
    def test_non_finite_exponent_exit_2(self, tmp_path, ckpts, capsys, option, value):
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], f"{option}={value}",
                              self._cands(tmp_path, [10, 20]))
        assert rc == 2 and stdout == ""
        assert err == f"config error: {option} must be finite, got {value}\n"

    @pytest.mark.parametrize("mode,given,missing", [
        pytest.param("connection_share", (), "ctr", id="given0-ctr"),
        pytest.param("connection_share", ("ctr",), "cvr", id="given1-cvr"),
        pytest.param("neuron_share", (), "ctr", id="neuron_share-given0-ctr"),
        pytest.param("neuron_share", ("ctr",), "cvr", id="neuron_share-given1-cvr")])
    def test_mask_mode_checkpoint_needs_both_masks(self, tmp_path, cfg_file, capsys,
                                                   mode, given, missing):
        out = tmp_path / "cs"
        assert run(capsys, "train", "--config", cfg_file, "--mode", mode,
                   "--out", str(out))[0] == 0
        ckpt = str(out / "model.ckpt")
        masks = [arg for t in given for arg in (f"--{t}-mask", str(out / f"mask_{t}.mask"))]
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpt, "--cvr-checkpoint",
                              ckpt, *masks, self._cands(tmp_path, [10, 20]))
        assert rc == 2 and stdout == ""
        assert err == (f"config error: --{missing}-mask is required: {ckpt} is a "
                       f"{mode} checkpoint\n")

    @pytest.mark.parametrize("mode,exponents", [
        pytest.param("connection_share", (1.0, 1.0, 1.0), id="exponents0"),
        pytest.param("connection_share", (0.7, 1.3, 0.5), id="exponents1"),
        pytest.param("neuron_share", (1.0, 1.0, 1.0), id="neuron_share-exponents0"),
        pytest.param("neuron_share", (0.7, 1.3, 0.5), id="neuron_share-exponents1")])
    def test_connection_share_run_with_both_masks(self, tmp_path, cfg_file, capsys,
                                                  monkeypatch, mode, exponents):
        """Also a neuron_share run: a searched mode's model.ckpt and both masks."""
        out = tmp_path / "cs"
        assert run(capsys, "train", "--config", cfg_file, "--mode", mode,
                   "--out", str(out))[0] == 0
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 8, (300, 4))
        lengths = np.round(rng.uniform(1.0, 600.0, 300), 1)
        ids[150:], lengths[150:] = ids[:150], lengths[:150]  # every score tied twice
        p = tmp_path / "cands.tsv"
        p.write_text("".join(f"{','.join(map(str, row))}\t{l!r}\n"
                             for row, l in zip(ids.tolist(), lengths.tolist())))
        loads = []
        load = model.load_checkpoint
        monkeypatch.setattr(model, "load_checkpoint", lambda path: loads.append(path) or load(path))
        alpha, beta, gamma = exponents
        rc, stdout, _ = run(capsys, "score", "--ctr-checkpoint", str(out / "model.ckpt"),
                            "--cvr-checkpoint", str(out / "model.ckpt"),
                            "--ctr-mask", str(out / "mask_ctr.mask"),
                            "--cvr-mask", str(out / "mask_cvr.mask"), "-k", "40",
                            "--alpha", str(alpha), "--beta", str(beta),
                            "--gamma", str(gamma), str(p))
        assert rc == 0 and len(loads) == 1  # one checkpoint, one shared front pass
        cfg, params = load(out / "model.ckpt")
        pred = {t: training.predict(params, cfg, t, ids,
                                    mask=masking.load_mask(out / f"mask_{t.value}.mask"))
                for t in (Task.CTR, Task.CVR)}
        assert not np.array_equal(pred[Task.CTR], pred[Task.CVR])
        score = np.array([a ** alpha * b ** beta * l ** gamma for a, b, l in
                          zip(pred[Task.CTR].tolist(), pred[Task.CVR].tolist(),
                              lengths.tolist())])
        order = np.lexsort((np.arange(len(score)), -score))[:40]
        assert stdout.splitlines() == [
            f"rank={r} index={i} score={score[i]:.10g} pctr={pred[Task.CTR][i]:.6f} "
            f"pcvr={pred[Task.CVR][i]:.6f} length={lengths[i]:g}"
            for r, i in enumerate(order.tolist(), start=1)]
        assert any(order[j] + 150 == order[j + 1] for j in range(39))  # ties shown

    def test_mistyped_checkpoint_header_exit_3(self, tmp_path, ckpts, capsys):
        raw = open(ckpts[0], "rb").read()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        header["embedding_dim"] = str(header["embedding_dim"])
        header = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + len(header).to_bytes(4, "little") + header + raw[12 + hlen:])
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", str(bad),
                              "--cvr-checkpoint", ckpts[1], self._cands(tmp_path, [10, 20]))
        assert (rc, stdout) == (3, "")
        assert err.startswith(f"data error: {bad}: bad checkpoint header: ")

    def test_swapped_masks_exit_3(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "cs"
        assert run(capsys, "train", "--config", cfg_file, "--out", str(out))[0] == 0
        ckpt, ctr, cvr = (str(out / name) for name in ("model.ckpt", "mask_ctr.mask",
                                                       "mask_cvr.mask"))
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpt, "--cvr-checkpoint",
                              ckpt, "--ctr-mask", cvr, "--cvr-mask", ctr,
                              self._cands(tmp_path, [10, 20]))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {cvr}: a cvr mask given as --ctr-mask\n"

    def test_mask_of_other_hidden_dims_exit_3(self, tmp_path, cfg_file, capsys):
        out, other = tmp_path / "cs", tmp_path / "other"
        assert run(capsys, "train", "--config", cfg_file, "--out", str(out))[0] == 0
        assert run(capsys, "train", "--config", cfg_file, "--out", str(other),
                   "--set", "model.hidden_dims=8")[0] == 0
        ckpt, mask = str(out / "model.ckpt"), str(other / "mask_cvr.mask")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpt, "--cvr-checkpoint",
                              ckpt, "--ctr-mask", str(out / "mask_ctr.mask"),
                              "--cvr-mask", mask, self._cands(tmp_path, [10, 20]))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {mask}: mask has 2 layers, params have 3\n"

    def test_two_checkpoints_loaded_separately(self, tmp_path, ckpts, capsys, monkeypatch):
        loads = []
        load = model.load_checkpoint
        monkeypatch.setattr(model, "load_checkpoint", lambda path: loads.append(path) or load(path))
        rc, _, _ = run(capsys, "score", "--ctr-checkpoint", ckpts[0], "--cvr-checkpoint",
                       ckpts[1], self._cands(tmp_path, [10, 20]))
        assert rc == 0 and loads == list(ckpts)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exit_2(self, tmp_path, ckpts, capsys, k):
        cands = self._cands(tmp_path, [10, 20])
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                              "--cvr-checkpoint", ckpts[1], "-k", k, cands)
        assert rc == 2 and "rank=" not in stdout and "-k" in err

    def test_k_too_large_exit_2(self, tmp_path, ckpts, capsys):
        cands = self._cands(tmp_path, [10, 20])
        rc, _, _ = run(capsys, "score", "--ctr-checkpoint", ckpts[0],
                       "--cvr-checkpoint", ckpts[1], "-k", "9", cands)
        assert rc == 2


CARDS = (8,) * 4   # the field cardinalities of the ``cfg_file`` checkpoints


def per_line_read_candidates(path, cards):
    """Reference: the per-line candidate parser the block parser replaced,
    plus its later rules (a finite length, and the dataset rows' id rule:
    ``0 <= id < min(card, 2**63)``)."""
    n_fields = len(cards)
    ids_out, lengths_out = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'ids<TAB>length'")
            try:
                ids = [int(x) for x in parts[0].split(",")]
                length = float(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if len(ids) != n_fields:
                raise DataError(f"{path}:{lineno}: {len(ids)} ids for {n_fields} fields")
            for f, (i, card) in enumerate(zip(ids, cards)):
                if i < 0 or i >= card or i >= 2 ** 63:
                    raise DataError(f"{path}:{lineno}: id {i} out of range for field {f} "
                                    f"(cardinality {card})")
            if length <= 0:
                raise DataError(f"{path}:{lineno}: video length must be positive")
            if not math.isfinite(length):
                raise DataError(f"{path}:{lineno}: video length must be finite")
            ids_out.append(ids)
            lengths_out.append(length)
    return (np.array(ids_out, dtype=np.int64).reshape(-1, n_fields),
            np.array(lengths_out, dtype=np.float64))


_ID = st.one_of(st.integers(-3, 40).map(str), st.sampled_from([
    "+5", "1_0", " 5", "5 ", "007", "", "x", "1.0", "0x1", "\u0663", "1__0",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "99999999999999999999"]))
_LENGTH = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["10", "1e3", "0", "-0.0", "-1", "nan", "inf", "-inf",
                                     " 5 ", "1_0.5", "x", "", "1,5", "\u0661\u0662"]))
_GOOD_LINE = st.tuples(st.lists(st.integers(0, 7).map(str), min_size=4, max_size=4)
                      .map(",".join), st.floats(0.5, 1e4).map(repr)).map("\t".join)
_LINE = st.one_of(  # repeated branches are drawn more often
    _GOOD_LINE, _GOOD_LINE, _GOOD_LINE,
    st.tuples(st.lists(_ID, min_size=4, max_size=4).map(",".join), _LENGTH).map("\t".join),
    st.tuples(st.lists(_ID, min_size=4, max_size=4).map(",".join), _LENGTH).map("\t".join),
    st.tuples(st.lists(_ID, min_size=1, max_size=6).map(",".join), _LENGTH).map("\t".join),
    st.sampled_from(["", "   ", "# comment", "  #x\t1", "\t", "1,2,3,4", "1,2,3,4\t5\t6",
                     "\x0b1,2,3,4\t5\x1c", "\u20281,2,3,4\t5", "\x0c"]),
    st.text(max_size=12))


_MIXED_FILE = st.lists(_LINE, max_size=12)
# candidates whose ids are all digit strings (data.digit_ids), some past int64
_DIGIT_FILE = st.lists(st.tuples(st.lists(DIGIT_ID, min_size=4, max_size=4).map(",".join),
                                 st.floats(0.5, 1e4).map(repr)).map("\t".join), max_size=20)
# good lines, blanks and comments, with at most one line of any kind inserted
_MOSTLY_GOOD_FILE = st.tuples(
    st.lists(st.one_of(_GOOD_LINE, _GOOD_LINE, st.sampled_from(["", " ", "#c"])), max_size=20),
    st.one_of(st.none(), _LINE), st.integers(0, 20),
).map(lambda t: t[0] if t[1] is None else t[0][:t[2]] + [t[1]] + t[0][t[2]:])


class TestReadCandidates:
    """The block parser accepts exactly what the per-line reference accepts,
    with the same arrays, and rejects the rest naming the same line."""

    @settings(max_examples=500, deadline=None)
    @given(lines=st.one_of(_MIXED_FILE, _MOSTLY_GOOD_FILE, _DIGIT_FILE),
           newlines=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=21, max_size=21),
           block=st.one_of(st.integers(1, 5), st.sampled_from([8, 64])),
           cards=st.sampled_from([CARDS, (10 ** 18, 2 ** 63, 10 ** 30, 8),
                                  (10 ** 19, 2 ** 63 - 1, 10 ** 18 + 1, 2 ** 64)]))
    def test_matches_per_line_reference(self, tmp_path_factory, lines, newlines, block, cards):
        p = tmp_path_factory.mktemp("cands") / "c.tsv"
        p.write_bytes("".join(a + b for a, b in zip(lines, newlines)).encode("utf-8"))
        try:
            want = per_line_read_candidates(p, cards)
        except DataError as exc:
            want = str(exc)
        with mock.patch.object(data_mod, "BLOCK_LINES", block):
            try:
                got = cli._read_candidates(p, cards)
            except DataError as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got[0].dtype == np.int64 and got[1].dtype == np.float64
            assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_grammar_of_int_and_float(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("# c\r\n+5,1_0, 5,007\t 1_0.5 \r\n\r\n\t-0,2,3,4\t1e3\n")
        ids, lengths = cli._read_candidates(p, (16,) * 4)
        assert ids.tolist() == [[5, 10, 5, 7], [0, 2, 3, 4]]
        assert lengths.tolist() == [10.5, 1000.0]

    def test_first_bad_line_across_blocks(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("0,0,0,0\t1\n" * 5 + "0,0,0\t1\n" + "0,0,0,0\tx\n")
        with mock.patch.object(data_mod, "BLOCK_LINES", 2):
            with pytest.raises(DataError, match=r"c.tsv:6: 3 ids for 4 fields$"):
                cli._read_candidates(p, CARDS)

    @pytest.mark.parametrize("bad,problem", [
        ("0,0,0,0\t-1", "video length must be positive"),
        ("0,0,0,0\t0", "video length must be positive"),
        ("0,0,0,0\tinf", "video length must be finite"),
        ("0,0,0\t1", "3 ids for 4 fields"),
        ("0,0,0,x\t1", "invalid literal for int() with base 10: 'x'"),
        ("0,0,0,0\t1\t1", "expected 'ids<TAB>length'"),
        ("0,0,0,99999999999999999999\t1",
         "id 99999999999999999999 out of range for field 3 (cardinality 8)"),
    ])
    def test_bad_line_deep_in_a_block(self, tmp_path, bad, problem):
        # plain lines around it, so only the bad line keeps the block from the bulk path
        lines = ["0,1,2,3\t10", "7,0,0,1\t2.5", "5,5,5,5\t600"] * 21 + [bad]
        lines[40], lines[-1] = lines[-1], lines[40]  # line 41, in the first block of 64 lines
        p = tmp_path / "c.tsv"
        p.write_text("\n".join(lines) + "\n")
        with mock.patch.object(data_mod, "BLOCK_LINES", 64):
            with pytest.raises(DataError) as exc:
                cli._read_candidates(p, CARDS)
        assert str(exc.value) == f"{p}:41: {problem}"

    def test_tab_count_checked_per_line(self, tmp_path):
        # a line without a tab and then one with two hold 4 halves, as two candidates do
        p = tmp_path / "c.tsv"
        p.write_text("1,2,3,4\n5\t1,2,3,4\t6\n")
        with pytest.raises(DataError, match=r"c.tsv:1: expected 'ids<TAB>length'$"):
            cli._read_candidates(p, CARDS)

    def test_plain_ids_never_reach_int(self, tmp_path):
        """A block of plain candidates is read in bulk, without the per-line
        parser and its ``int()``; a signed id sends its block there, which
        reads it to the same arrays."""
        p = tmp_path / "c.tsv"
        with mock.patch.object(cli, "_parse_candidate", wraps=cli._parse_candidate) as parse:
            p.write_text("1,02,3,4\t10\n0,0,0,999999999999999999\t2.5\n")
            plain = cli._read_candidates(p, (8, 8, 8, 10 ** 18))
            assert parse.call_count == 0
            p.write_text("+1,02,3,4\t10\n0,0,0,999999999999999999\t2.5\n")
            signed = cli._read_candidates(p, (8, 8, 8, 10 ** 18))
            assert parse.call_count == 2
        assert plain[0].tolist() == [[1, 2, 3, 4], [0, 0, 0, 10 ** 18 - 1]]
        assert signed[0].tobytes() == plain[0].tobytes()
        assert signed[1].tobytes() == plain[1].tobytes()


class TestMaskStats:
    def test_stats_from_run(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(capsys, "train", "--config", cfg_file, "--out", str(out))
        rc, stdout, _ = run(capsys, "mask", "stats",
                            str(out / "mask_ctr.mask"), str(out / "mask_cvr.mask"))
        assert rc == 0
        assert "shared=" in stdout and "dead=" in stdout

    def test_bad_file_exit_3(self, tmp_path, capsys):
        p = tmp_path / "junk.mask"
        p.write_bytes(b"not a mask")
        rc, _, _ = run(capsys, "mask", "stats", str(p), str(p))
        assert rc == 3

    def test_masks_of_different_depth_exit_3(self, tmp_path, capsys):
        ctr, cvr = tmp_path / "ctr.mask", tmp_path / "cvr.mask"
        masking.save_mask(ctr, masking.TaskMask([np.ones((4, 3)), np.ones((3, 1))], Task.CTR))
        masking.save_mask(cvr, masking.TaskMask([np.ones((4, 1))], Task.CVR))
        rc, stdout, err = run(capsys, "mask", "stats", str(ctr), str(cvr))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {ctr} and {cvr} do not match: masks have 2 vs 1 layers\n"

    def test_swapped_masks_exit_3(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", "--config", cfg_file, "--out", str(out))[0] == 0
        ctr, cvr = str(out / "mask_ctr.mask"), str(out / "mask_cvr.mask")
        rc, stdout, err = run(capsys, "mask", "stats", cvr, ctr)
        assert rc == 3 and stdout == ""
        assert err == f"data error: {cvr}: a cvr mask given as CTR_MASK_FILE\n"
        rc, stdout, err = run(capsys, "mask", "stats", ctr, ctr)
        assert rc == 3 and stdout == ""
        assert err == f"data error: {ctr}: a ctr mask given as CVR_MASK_FILE\n"


class TestDeterminism:
    def test_same_config_same_report(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "train", "--config", cfg_file, "--out", str(a))
        run(capsys, "train", "--config", cfg_file, "--out", str(b))
        assert (a / "report.kv").read_bytes() == (b / "report.kv").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    @staticmethod
    def check_scatter_add_pipeline(tmp_path, capsys, monkeypatch, mode, swaps, *args):
        """Train ``mode`` twice, shipped and with each ``model`` function
        named in ``swaps`` replaced by its value, and require the same files
        with the same bytes: checkpoints, masks, reports and train log."""
        shipped, ref = tmp_path / "shipped", tmp_path / "ref"
        assert run(capsys, "train", *args, "--mode", mode, "--out", str(shipped))[0] == 0
        with monkeypatch.context() as m:
            for name, value in swaps.items():
                m.setattr(model, name, value)
            assert run(capsys, "train", *args, "--mode", mode, "--out", str(ref))[0] == 0
        files = run_files(shipped)
        assert files == run_files(ref)
        assert "report.kv" in files and any(f.endswith(".ckpt") for f in files)
        if mode in ("connection_share", "neuron_share"):
            assert "mask_ctr.mask" in files and "masks/cvr_round2.mask" in files
        for name in files:   # config.cfg records the output dir
            if name != "config.cfg" and (shipped / name).is_file():
                assert (shipped / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("mode", ["single_task", "layer_share", "connection_share",
                                      "neuron_share"])
    def test_backward_matches_scatter_add_pipeline(self, tmp_path, cfg_file, capsys,
                                                   monkeypatch, mode):
        """A whole pairwise-dot run is byte-identical with the table
        gradient swapped for the ``ufunc.at`` reference. Its cross backward
        is a BLAS matmul, bounded against the reference in test_model."""
        self.check_scatter_add_pipeline(tmp_path, capsys, monkeypatch, mode,
                                        {"_table_grads": scatter_table_grads},
                                        "--config", cfg_file)

    def test_pairwise_product_matches_scatter_add_pipeline(self, tmp_path, cfg_file, capsys,
                                                           monkeypatch):
        """A whole pairwise-product run is byte-identical with both the
        cross backward and the table gradient swapped for the ``ufunc.at``
        references."""
        self.check_scatter_add_pipeline(
            tmp_path, capsys, monkeypatch, "connection_share",
            {"_cross_backward": scatter_cross_backward, "_table_grads": scatter_table_grads},
            "--config", cfg_file, "--set", "model.cross_kind=pairwise_product")
