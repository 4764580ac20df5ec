"""The benchmark's workloads: inputs made from a seed, set-up, one timed
operation, the operation's output files, and checks on those outputs.

Each workload goes through the same steps:

1. ``prepare`` writes input files the program reads. It is benchmark work
   and is not timed.
2. ``setup`` does the program's own work before the timed operation and is
   timed as ``setup_s``.
3. ``run`` is one timed operation. It writes its outputs to a fresh
   directory and returns ``(run_s, items, items_s)``: its wall time, the
   items it processed, and the time that throughput is measured over.
4. ``outputs`` hashes the files that must be identical across repeats.
5. ``check`` verifies the first operation's outputs. It does not trust the
   program's own report. It returns quality figures for the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

from lotshare import cli, config, data, masking, metrics, model, training
from lotshare.metrics import MetricsReport
from lotshare.model import SharingMode, Task, TASKS

WIDE_CARDINALITY = 10_000
WIDE_IMPRESSIONS = 100_000
SCORE_CANDIDATES = 200_000
SCORE_TOP_K = 100
SCORE_PREP_IMPRESSIONS = 5_000


class CheckError(Exception):
    """An output of the program is wrong."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, what: str, tol: float = 1e-9) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(b))):
        raise CheckError(f"{what}: {a!r} != {b!r}")


def _ctr_normalized_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Test log loss divided by the entropy of the test click rate."""
    loss = -float(np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    b = float(np.mean(y))
    return loss / -(b * math.log(b) + (1.0 - b) * math.log1p(-b))


def check_run_dir(out: Path, ds: data.Dataset, mcfg: model.ModelConfig,
                  tcfg: training.TrainConfig) -> dict[str, float]:
    """Reload a run directory's checkpoints and masks and re-derive its
    report: test metrics, mask sparsity and overlap must match."""
    report = MetricsReport.from_kv_lines(
        (out / "report.kv").read_text(encoding="utf-8").splitlines())
    if report.mode != mcfg.sharing_mode.value:
        raise CheckError(f"report mode {report.mode!r}, expected {mcfg.sharing_mode.value!r}")
    quality: dict[str, float] = {}
    masks: dict[Task, masking.TaskMask | None] = {}
    for task in TASKS:
        ckpt = out / f"{task.value}.ckpt"
        if not ckpt.exists():
            ckpt = out / "model.ckpt"
        cfg, params = model.load_checkpoint(ckpt)
        if cfg != mcfg:
            raise CheckError(f"{ckpt.name}: config {cfg} differs from {mcfg}")
        mask_path = out / f"mask_{task.value}.mask"
        masks[task] = masking.load_mask(mask_path) if mask_path.exists() else None
        ids, labels = ds.subset(task, "test")
        preds = training.predict(params, cfg, task, ids, mask=masks[task])
        if task is Task.CTR:
            key, value = "ctr_auc", metrics.auc(labels, preds)
            quality["ctr_ne"] = _ctr_normalized_entropy(preds, labels)
        else:
            key, value = "cvr_mse", metrics.mse(labels, preds)
        _close(report.metrics[key], value, f"report {key} vs reloaded model")
        quality[key] = value

    pruning = mcfg.sharing_mode in (SharingMode.CONNECTION_SHARE, SharingMode.NEURON_SHARE)
    if pruning != all(m is not None for m in masks.values()):
        raise CheckError(f"{mcfg.sharing_mode.value} run has masks for "
                         f"{[t.value for t, m in masks.items() if m is not None]}")
    for task in TASKS:
        m = masks[task]
        frac = 1.0 if m is None else m.survivor_fraction()
        quality[f"survivor_frac.{task.value}"] = frac
        if m is None:
            continue
        _close(report.sparsity[task.value], frac, f"report sparsity.{task.value}")
        rounds = sorted((out / "masks").glob(f"{task.value}_round*.mask"))
        if len(rounds) != tcfg.n_pruning + 1:
            raise CheckError(f"{len(rounds)} {task.value} mask rounds, "
                             f"expected {tcfg.n_pruning + 1}")
        best = masking.load_mask(out / "masks" / f"{task.value}_round{m.pruning_round}.mask")
        if best != m:
            raise CheckError(f"mask_{task.value}.mask is not round {m.pruning_round}")
    if pruning:
        stats = masking.overlap_stats(masks[Task.CTR], masks[Task.CVR])
        n_conn = sum(a * b for a, b in zip(mcfg.mlp_dims, mcfg.mlp_dims[1:]))
        if stats.total != n_conn or report.overlap["shared"] != stats.shared:
            raise CheckError(f"overlap {report.overlap} vs {stats.to_kv_lines()}")
    return quality


def training_samples(ds: data.Dataset, tcfg: training.TrainConfig) -> int:
    """Samples that pass through train steps in one ``train_model`` call."""
    n = {t: len(ds.subset(t, "train")[1]) for t in TASKS}
    both = n[Task.CTR] + n[Task.CVR]
    if tcfg.sharing_mode in (SharingMode.SINGLE_TASK, SharingMode.LAYER_SHARE):
        return both * tcfg.joint_epochs
    return (both * (tcfg.warmup_epochs + tcfg.joint_epochs)
            + both * tcfg.mask_epochs * (tcfg.n_pruning + 1))


class TrainWorkload:
    """``train_model``, then ``build_report`` and ``write_run_dir``."""

    def __init__(self, seed: int, work: Path, kv: dict[str, str],
                 from_tsv: bool = False):
        self.kv = {"seed": str(seed), **kv}
        self.tsv = work / "dataset.tsv" if from_tsv else None

    def prepare(self) -> None:
        if self.tsv is not None:
            exp = config.build_experiment(self.kv)
            data.save(data.generate(exp.synth), self.tsv)

    def setup(self):
        kv = self.kv if self.tsv is None else {**self.kv, "dataset": str(self.tsv)}
        exp = config.build_experiment(kv)
        if exp.dataset_path:
            ds = data.load(exp.dataset_path)
        else:
            ds = data.generate(exp.synth)
        mcfg = exp.model_config(ds.field_cardinalities)
        model.init_params(mcfg, exp.train.seed)
        return exp, ds, mcfg

    def run(self, state, out: Path) -> tuple[float, int, float]:
        exp, ds, mcfg = state
        t0 = time.perf_counter()
        art = training.train_model(ds, mcfg, exp.train)
        t1 = time.perf_counter()
        report = cli.build_report(art, ds, mcfg, exp)
        cli.write_run_dir(out, exp, art, mcfg, report)
        t2 = time.perf_counter()
        return t2 - t0, training_samples(ds, exp.train), t1 - t0

    def outputs(self, out: Path) -> dict[str, str]:
        names = ["report.kv", *sorted(p.name for p in out.glob("*.ckpt")),
                 *sorted(p.name for p in out.glob("mask_*.mask"))]
        return {name: sha256_file(out / name) for name in names}

    def check(self, state, out: Path) -> dict[str, float]:
        exp, ds, mcfg = state
        return check_run_dir(out, ds, mcfg, exp.train)


class ScoreWorkload:
    """One in-process ``lotshare score`` over generated candidates.

    Set-up trains a small ``connection_share`` model and writes its run
    directory. Its checkpoint and selected masks feed the timed call.
    """

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.kv = {"seed": str(seed), "mode": "connection_share",
                   "data.n_impressions": str(SCORE_PREP_IMPRESSIONS)}
        self.prep = work / "prep"
        self.candidates = work / "candidates.tsv"

    def prepare(self) -> None:
        cards = config.build_experiment(self.kv).synth.field_cardinalities
        rng = np.random.default_rng([self.seed, 7])
        ids = np.stack([rng.integers(0, c, SCORE_CANDIDATES) for c in cards], axis=1)
        lengths = rng.uniform(5.0, 600.0, SCORE_CANDIDATES)
        lines = [f"{','.join(map(str, row))}\t{length:.1f}"
                 for row, length in zip(ids.tolist(), lengths.tolist())]
        self.candidates.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.ids = ids
        self.lengths = np.array([float(line.rsplit("\t", 1)[1]) for line in lines])

    def setup(self):
        exp = config.build_experiment(self.kv)
        ds = data.generate(exp.synth)
        mcfg = exp.model_config(ds.field_cardinalities)
        art = training.train_model(ds, mcfg, exp.train)
        report = cli.build_report(art, ds, mcfg, exp)
        cli.write_run_dir(self.prep, exp, art, mcfg, report)
        return exp, ds, mcfg

    def argv(self) -> list[str]:
        return ["score",
                "--ctr-checkpoint", str(self.prep / "model.ckpt"),
                "--cvr-checkpoint", str(self.prep / "model.ckpt"),
                "--ctr-mask", str(self.prep / "mask_ctr.mask"),
                "--cvr-mask", str(self.prep / "mask_cvr.mask"),
                "-k", str(SCORE_TOP_K), str(self.candidates)]

    def run(self, state, out: Path) -> tuple[float, int, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv())
        run_s = time.perf_counter() - t0
        if code != 0:
            raise CheckError(f"lotshare score exited with code {code}")
        out.mkdir(parents=True)
        (out / "score.out").write_text(buf.getvalue(), encoding="utf-8")
        return run_s, SCORE_CANDIDATES, run_s

    def outputs(self, out: Path) -> dict[str, str]:
        return {"score.out": sha256_file(out / "score.out")}

    def check(self, state, out: Path) -> dict[str, float]:
        """The printed top k must equal an independent numpy ranking of
        pCTR * pCVR * length, with ties broken by candidate index."""
        exp, ds, mcfg = state
        quality = check_run_dir(self.prep, ds, mcfg, exp.train)
        _, params = model.load_checkpoint(self.prep / "model.ckpt")
        pred = {t: training.predict(params, mcfg, t, self.ids,
                                    mask=masking.load_mask(self.prep / f"mask_{t.value}.mask"))
                for t in TASKS}
        score = pred[Task.CTR] * pred[Task.CVR] * self.lengths
        expected = np.lexsort((np.arange(len(score)), -score))[:SCORE_TOP_K]
        lines = (out / "score.out").read_text(encoding="utf-8").splitlines()
        if len(lines) != SCORE_TOP_K:
            raise CheckError(f"score printed {len(lines)} lines, expected {SCORE_TOP_K}")
        for rank, (line, idx) in enumerate(zip(lines, expected), start=1):
            fields = dict(part.split("=", 1) for part in line.split())
            if (int(fields["rank"]) != rank or int(fields["index"]) != idx
                    or fields["score"] != f"{score[idx]:.10g}"):
                raise CheckError(f"score line {rank}: {line!r}, expected index {idx} "
                                 f"score {score[idx]:.10g}")
        return quality


def make(name: str, seed: int, work: Path):
    if name == "mask_search":
        return TrainWorkload(seed, work, {"mode": "connection_share"})
    if name == "wide_tables":
        n_ids = str(2 * WIDE_CARDINALITY)
        return TrainWorkload(seed, work, {
            "mode": "layer_share",
            "data.field_cardinalities": ",".join([str(WIDE_CARDINALITY)] * 8),
            "data.n_impressions": str(WIDE_IMPRESSIONS),
            "data.n_users": n_ids, "data.n_items": n_ids,
        }, from_tsv=True)
    if name == "score_rank":
        return ScoreWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")
