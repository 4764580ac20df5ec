"""`lotshare` command line: generate-data, train, compare, prune-sweep,
score, mask stats. One command per process; exit codes 0/2/3/4."""

from __future__ import annotations

import math
import re
import sys
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import data as data_mod
from . import masking, metrics, model, training
from .config import ExperimentConfig, load_experiment
from .errors import ConfigError, DataError, ShapeError
from .metrics import MetricsReport, format_gain, mtl_gain
from .model import SharingMode, Task, TASKS

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _load_dataset(exp: ExperimentConfig, splits: tuple[str, ...]) -> data_mod.Dataset:
    """The TSV at ``exp.dataset_path``, or synthetic data from the ``data.*``
    config without one, checked for a command that reads ``splits``, train
    first. Its tables (the cardinalities' sum times ``embedding_dim``) must
    fit one array (``model.MAX_ENTRIES``), every task needs rows in each
    split, and CTR labels hold both classes, for AUC, in each split but
    train. A failed check is a DataError naming the TSV, or a ConfigError
    naming the ``data.*`` config."""
    if exp.dataset_path:
        ds, error, source = data_mod.load(exp.dataset_path), DataError, exp.dataset_path
    else:
        ds, error, source = (data_mod.generate(exp.synth), ConfigError,
                             "synthetic data from the data.* config")
    cards = ds.field_cardinalities
    if sum(cards) * exp.embedding_dim >= model.MAX_ENTRIES:
        raise error(f"{source}: cardinalities {cards} with embedding_dim "
                    f"{exp.embedding_dim} give tables past 2**60 entries")

    def labels(task, split):   # without the copy of the ids that subset makes
        td = ds.task(task)
        return td.labels[td.split == data_mod.SPLITS.index(split)]

    for split in splits:
        for task in TASKS:
            if len(labels(task, split)) == 0:
                raise error(f"{source}: no {split} rows for task {task.value}")
    for split in splits[1:]:
        ctr = labels(Task.CTR, split)
        if (ctr == ctr[0]).all():
            raise error(f"{source}: ctr {split} labels are all {ctr[0]:g}; "
                        "AUC needs both classes")
    return ds


def _check_dir_target(path: Path) -> None:
    """DataError unless ``path`` is a directory or can be made one: the
    first of it and its parents that exists must be a directory. Nothing
    is created, so a run that fails later leaves no directory behind."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"cannot create directory {path}: {existing} is not a directory")


def _check_file_target(path: Path) -> None:
    """DataError unless ``path`` can be written as a file: it is not a
    directory, and its directory passes ``_check_dir_target``."""
    if path.is_dir():
        raise DataError(f"cannot write file {path}: it is a directory")
    _check_dir_target(path.parent)


def _history_kv(entry: dict) -> str:
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in entry.items())


def build_report(art: training.TrainedArtifacts, dataset: data_mod.Dataset,
                 mcfg: model.ModelConfig, exp: ExperimentConfig) -> MetricsReport:
    report = MetricsReport(
        mode=mcfg.sharing_mode.value,
        metrics=training.evaluate_artifacts(art, dataset, mcfg),
        config_fingerprint=exp.fingerprint(),
        notes={
            "hidden_activation": "relu",
            "cross_kind": mcfg.cross_kind.value,
            "quantile_pool": "global_surviving",
            "optimizer_reset_on_rewind": "true",
        },
    )
    if art.masks:
        for task in TASKS:
            m = art.best_mask(task)
            report.sparsity[task.value] = m.survivor_fraction()
            report.notes[f"best_round_{task.value}"] = str(art.best_i[task])
        stats = masking.overlap_stats(art.best_mask(Task.CTR), art.best_mask(Task.CVR))
        report.overlap.update({"shared": stats.shared, "ctr_only": stats.ctr_only,
                               "cvr_only": stats.cvr_only, "dead": stats.dead})
    return report


# The run-dir files that only some modes write; round masks live in masks/.
_MODE_FILES = ("model.ckpt", "ctr.ckpt", "cvr.ckpt", "mask_ctr.mask", "mask_cvr.mask")
_ROUND_MASK = re.compile(r"(?:ctr|cvr)_round(?:0|[1-9][0-9]*)\.mask")


def _remove_stale_artifacts(outdir: Path, keep: set[str]) -> None:
    """Delete the lotshare files in ``outdir`` that are not in ``keep``
    (paths relative to ``outdir``): those a run in another mode, or with
    more pruning rounds, left there. Only exact artifact names are touched,
    and ``masks/`` only goes when nothing else is left in it."""
    mask_dir = outdir / "masks"
    rounds = ([f"masks/{p.name}" for p in mask_dir.iterdir() if _ROUND_MASK.fullmatch(p.name)]
              if mask_dir.is_dir() else [])
    for name in [*_MODE_FILES, *rounds]:
        path = outdir / name
        if name not in keep and path.is_file():
            path.unlink()
    if mask_dir.is_dir() and not any(mask_dir.iterdir()):
        mask_dir.rmdir()


def write_run_dir(outdir: Path, exp: ExperimentConfig,
                  art: training.TrainedArtifacts, mcfg: model.ModelConfig,
                  report: MetricsReport) -> None:
    """Write a run's artifacts to ``outdir``, first removing the artifacts
    of an earlier run there that this run does not overwrite. A shared run
    holds one params object under both tasks and saves it once, as
    ``model.ckpt``; single_task saves ``ctr.ckpt`` and ``cvr.ckpt``."""
    shared = art.params[Task.CTR] is art.params[Task.CVR]
    artifacts = {("model.ckpt" if shared else f"{task.value}.ckpt"):
                 partial(model.save_checkpoint, params=art.params[task], cfg=mcfg)
                 for task in TASKS}
    for task, rounds in art.masks.items():
        artifacts[f"mask_{task.value}.mask"] = partial(masking.save_mask,
                                                       mask=art.best_mask(task))
        for rnd, mask in enumerate(rounds):
            artifacts[f"masks/{task.value}_round{rnd}.mask"] = partial(masking.save_mask,
                                                                       mask=mask)
    outdir.mkdir(parents=True, exist_ok=True)
    _remove_stale_artifacts(outdir, set(artifacts))
    (outdir / "config.cfg").write_text(exp.to_text(), encoding="utf-8")
    for name, write in artifacts.items():
        (outdir / name).parent.mkdir(exist_ok=True)
        write(outdir / name)
    with open(outdir / "train.log", "w", encoding="utf-8") as fh:
        for entry in art.history:
            fh.write(_history_kv(entry) + "\n")
    (outdir / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    (outdir / "report.kv").write_text("\n".join(report.to_kv_lines()) + "\n",
                                      encoding="utf-8")


def comparison_table(reports: list[MetricsReport]) -> str:
    """Table-2-style comparison; gains computed against the single_task row."""
    single = next((r for r in reports if r.mode == SharingMode.SINGLE_TASK.value), None)
    if single is None:
        raise ConfigError("compare needs a single_task run (MTL gain is undefined without it)")
    ordered = [single] + [r for r in reports if r is not single]
    rows = [("Model", "CVR MSE", "CTR AUC", "MTL Gain CVR", "MTL Gain CTR")]
    for rep in ordered:
        values, gains = [], []
        for key, task in (("cvr_mse", Task.CVR), ("ctr_auc", Task.CTR)):
            value, base = rep.metrics.get(key), single.metrics.get(key)
            values.append("n/a" if value is None else f"{value:.5f}")
            if rep is single:
                gains.append("-")
            elif value is None or base is None or base == 0:   # no relative gain
                gains.append("n/a")
            else:
                gains.append(format_gain(*mtl_gain(base, value, task)))
        rows.append((rep.mode, *values, *gains))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


_CONFIG_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="key = value config file"),
    click.option("--mode", type=str, default=None,
                 help="single_task | layer_share | connection_share | neuron_share"),
    click.option("--dataset", type=click.Path(), default=None,
                 help="dataset TSV (omit to use synthetic data from the config)"),
    click.option("--seed", type=int, default=None),
    click.option("--out", "output_dir", type=click.Path(), default=None,
                 help="run output directory"),
    click.option("--set", "extra", multiple=True, metavar="KEY=VALUE",
                 help="override any config key"),
]


def _with_config_options(fn):
    for opt in reversed(_CONFIG_OPTIONS):
        fn = opt(fn)
    return fn


def _build_exp(config_path, mode, dataset, seed, output_dir, extra) -> ExperimentConfig:
    overrides: dict[str, str] = {}
    for item in extra:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        overrides[k.strip()] = v.strip()
    if mode is not None:
        overrides["mode"] = mode
    if dataset is not None:
        overrides["dataset"] = dataset
    if seed is not None:
        overrides["seed"] = str(seed)
    if output_dir is not None:
        overrides["output_dir"] = output_dir
    return load_experiment(config_path, overrides)


@click.group()
def cli():
    """Multi-task CTR/CVR training with neuron-connection level sharing."""


@cli.command("generate-data")
@_with_config_options
@click.option("--out-file", type=click.Path(), default=None,
              help="dataset TSV path (default <output_dir>/dataset.tsv)")
def cmd_generate_data(config_path, mode, dataset, seed, output_dir, extra, out_file):
    """Generate a synthetic CTR/CVR dataset and write it with its sidecar spec,
    the `data.*` lines of the effective config."""
    exp = _build_exp(config_path, mode, dataset, seed, output_dir, extra)
    path = Path(out_file) if out_file else Path(exp.output_dir) / "dataset.tsv"
    spec_path = Path(str(path) + ".spec")
    for target in (path, spec_path):
        _check_file_target(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    ds = data_mod.generate(exp.synth)
    data_mod.save(ds, path)
    spec = [line for line in exp.to_kv_lines() if line.startswith("data.")]
    spec_path.write_text("\n".join(spec) + "\n", encoding="utf-8")
    counts = ds.counts()
    click.echo(f"wrote {path}")
    click.echo("dataset        #user  #item  #impression  #click  #conversion")
    click.echo(f"synthetic      {exp.synth.n_users:>5}  {exp.synth.n_items:>5}  "
               f"{counts['impressions']:>11}  {counts['clicks']:>6}  "
               f"{counts['conversions']:>11}")


@cli.command("train")
@_with_config_options
def cmd_train(config_path, mode, dataset, seed, output_dir, extra):
    """Train the configured sharing mode end to end and write the run dir."""
    exp = _build_exp(config_path, mode, dataset, seed, output_dir, extra)
    for line in exp.to_kv_lines():   # config.cfg is written after training
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{line.split(' = ')[0]} is not valid UTF-8, so config.cfg "
                              "cannot hold it") from None
    outdir = Path(exp.output_dir)
    _check_dir_target(outdir)
    ds = _load_dataset(exp, ("train", "val", "test") if exp.mode.prunes else ("train", "test"))
    mcfg = exp.model_config(ds.field_cardinalities)
    art = training.train_model(ds, mcfg, exp.train)
    report = build_report(art, ds, mcfg, exp)
    write_run_dir(outdir, exp, art, mcfg, report)
    for entry in art.history:
        click.echo(_history_kv(entry))
    click.echo(report.to_text())
    click.echo(f"run written to {outdir}")


@cli.command("compare")
@click.argument("run_dirs", nargs=-1, required=True,
                type=click.Path(exists=True, file_okay=False))
def cmd_compare(run_dirs):
    """Compare run directories against the single_task run (Table-2 style)."""
    reports = []
    for d in run_dirs:
        kv_path = Path(d) / "report.kv"
        if not kv_path.exists():
            raise DataError(f"{d}: no report.kv (not a finished run directory)")
        try:
            report = MetricsReport.from_kv_lines(kv_path.read_text(encoding="utf-8").splitlines())
        except UnicodeDecodeError:
            raise DataError(f"{kv_path}: not valid UTF-8") from None
        except DataError as exc:
            raise DataError(f"{kv_path}: {exc}") from None
        if report.mode not in {m.value for m in SharingMode}:
            raise DataError(f"{kv_path}: no 'mode=' line naming a sharing mode")
        reports.append(report)
    click.echo(comparison_table(reports))


@cli.command("prune-sweep")
@_with_config_options
@click.option("--curve-file", type=click.Path(), default=None,
              help="TSV output (default <output_dir>/sweep.tsv)")
def cmd_prune_sweep(config_path, mode, dataset, seed, output_dir, extra, curve_file):
    """Warmup + mask generation only; emit the per-round sparsity/score curve."""
    exp = _build_exp(config_path, mode, dataset, seed, output_dir, extra)
    if not exp.mode.prunes:
        raise ConfigError(f"prune-sweep needs a pruning mode, got {exp.mode.value}")
    path = Path(curve_file) if curve_file else Path(exp.output_dir) / "sweep.tsv"
    _check_file_target(path)
    ds = _load_dataset(exp, ("train", "val"))
    mcfg = exp.model_config(ds.field_cardinalities)
    history: list[dict] = []
    params = model.init_params(mcfg, exp.train.seed)
    training.warmup(params, ds, mcfg, exp.train, history)
    training.generate_masks(params, ds, mcfg, exp.train, history)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [e for e in history if e.get("stage") == "mask_gen"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("task\tround\tproportion_left\tval_metric\n")
        for e in rows:
            fh.write(f"{e['task']}\t{e['round']}\t{e['proportion_left']:.10g}\t"
                     f"{e['val']:.10g}\n")
    for e in rows:
        click.echo(_history_kv(e))
    click.echo(f"curve written to {path}")


def _parse_candidate(line: str, cards: tuple[int, ...]) -> tuple[list[int], float] | None:
    """A candidate, ``id,...,id<TAB>length``, as ``(ids, length)``; None for
    a blank line or a comment (``#`` first). Surrounding whitespace is
    ignored, and ids and length convert with Python's ``int()`` and
    ``float()``. The ids follow ``data.check_ids`` for the field
    cardinalities ``cards``. Raises ValueError naming the first rule the
    line breaks."""
    line = line.strip()
    if not line or line[0] == "#":
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError("expected 'ids<TAB>length'")
    ids = [int(x) for x in parts[0].split(",")]
    length = float(parts[1])
    data_mod.check_ids(ids, cards)
    if length <= 0:
        raise ValueError("video length must be positive")
    if not math.isfinite(length):
        raise ValueError("video length must be finite")
    return ids, length


def _candidate_block(lines: list[str],
                     cards: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns :func:`_parse_candidate` gives ``lines``, as ``(ids (n, F)
    int64, lengths (n,) float64)``, when every line is a candidate that it
    accepts and whose ids ``data.digit_ids`` reads; None otherwise."""
    if not data_mod.tabs_per_line(lines, 1):
        return None
    halves = "\t".join(lines).split("\t")
    ids = data_mod.digit_ids(halves[0::2], len(cards))
    if ids is None or (ids.max(0) >= cards).any():
        return None
    try:
        lengths = np.fromiter(map(float, halves[1::2]), np.float64, len(lines))
    except ValueError:
        return None
    if not ((lengths > 0) & np.isfinite(lengths)).all():
        return None
    return ids, lengths


def _read_candidates(path, cards: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Candidates for a model of field cardinalities ``cards``, as ``(ids (n,
    F) int64, lengths (n,) float64)``, one a line as :func:`_parse_candidate`
    reads a line; blocks of plain candidates are read in bulk. Lines are read
    by ``data.read_blocks``, so a DataError names the first bad line and its
    problem.
    """
    with data_mod.open_text(path) as fh:
        blocks = list(data_mod.read_blocks(path, fh, partial(_candidate_block, cards=cards),
                                           partial(_parse_candidate, cards=cards)))
    if not blocks:
        return np.empty((0, len(cards)), dtype=np.int64), np.empty(0)
    ids, lengths = zip(*blocks)
    return np.concatenate(ids), np.concatenate(lengths)


def _load_task_mask(path, task: Task, slot: str) -> masking.TaskMask:
    """The mask in ``path``, given as the argument ``slot`` for ``task``;
    DataError unless it was saved for that task."""
    mask = masking.load_mask(path)
    if mask.task is not task:
        raise DataError(f"{path}: a {mask.task.value} mask given as {slot}")
    return mask


def _load_slot_mask(path, task: Task, params: model.ModelParams) -> masking.TaskMask:
    """The mask in ``path`` given for ``task``; DataError unless it was
    saved for that task and its layers match the MLP weights of ``params``."""
    mask = _load_task_mask(path, task, f"--{task.value}-mask")
    try:
        model.check_mask_shapes(params.mlp_weights, mask.layers)
    except ShapeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return mask


@cli.command("score")
@click.option("--ctr-checkpoint", required=True, type=click.Path(exists=True))
@click.option("--cvr-checkpoint", required=True, type=click.Path(exists=True))
@click.option("--ctr-mask", type=click.Path(exists=True), default=None)
@click.option("--cvr-mask", type=click.Path(exists=True), default=None)
@click.option("-k", "top_k", type=click.IntRange(min=1), default=1)
@click.option("--alpha", type=float, default=1.0)
@click.option("--beta", type=float, default=1.0)
@click.option("--gamma", type=float, default=1.0)
@click.argument("candidates_file", type=click.Path(exists=True))
def cmd_score(ctr_checkpoint, cvr_checkpoint, ctr_mask, cvr_mask, top_k,
              alpha, beta, gamma, candidates_file):
    """Rank candidates by pCTR^alpha * pCVR^beta * length^gamma.

    A connection_share or neuron_share checkpoint needs its task's mask,
    saved for that task and shaped like the checkpoint's MLP; a single_task
    or layer_share checkpoint takes none. With one checkpoint
    for both tasks (the same bytes), both share one embedding and
    feature-cross pass."""
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value!r}")
    ctr_cfg, ctr_params = model.load_checkpoint(ctr_checkpoint)
    if Path(cvr_checkpoint).read_bytes() == Path(ctr_checkpoint).read_bytes():
        cvr_cfg, cvr_params = ctr_cfg, ctr_params
    else:
        cvr_cfg, cvr_params = model.load_checkpoint(cvr_checkpoint)
    if ctr_cfg.field_cardinalities != cvr_cfg.field_cardinalities:
        raise ConfigError("CTR and CVR checkpoints disagree on the feature schema")
    for task, path, cfg, mask in ((Task.CTR, ctr_checkpoint, ctr_cfg, ctr_mask),
                                  (Task.CVR, cvr_checkpoint, cvr_cfg, cvr_mask)):
        searched = cfg.sharing_mode.prunes
        if (mask is None) == searched:
            raise ConfigError(f"--{task.value}-mask is {'required' if searched else 'not taken'}: "
                              f"{path} is a {cfg.sharing_mode.value} checkpoint")
    masks = {
        Task.CTR: _load_slot_mask(ctr_mask, Task.CTR, ctr_params) if ctr_mask else None,
        Task.CVR: _load_slot_mask(cvr_mask, Task.CVR, cvr_params) if cvr_mask else None,
    }
    ids, lengths = _read_candidates(candidates_file, ctr_cfg.field_cardinalities)
    if not len(lengths):
        raise DataError(f"{candidates_file}: no candidates")
    if top_k > len(lengths):
        raise ConfigError(f"k={top_k} exceeds {len(lengths)} candidates")
    preds = training.predict_tasks({Task.CTR: (ctr_params, ctr_cfg, masks[Task.CTR]),
                                    Task.CVR: (cvr_params, cvr_cfg, masks[Task.CVR])}, ids)
    pctr, pcvr = preds[Task.CTR], preds[Task.CVR]
    scores = metrics.rank_scores(pctr, pcvr, lengths, alpha, beta, gamma)
    click.echo("\n".join(
        f"rank={rank} index={i} score={float(scores[i]):.10g} "
        f"pctr={float(pctr[i]):.6f} pcvr={float(pcvr[i]):.6f} length={float(lengths[i]):g}"
        for rank, i in enumerate(metrics.rank_top_k(scores, top_k), start=1)))


@cli.group("mask")
def cmd_mask():
    """Mask file utilities."""


@cmd_mask.command("stats")
@click.argument("ctr_mask_file", type=click.Path(exists=True))
@click.argument("cvr_mask_file", type=click.Path(exists=True))
def cmd_mask_stats(ctr_mask_file, cvr_mask_file):
    """Overlap statistics of a CTR mask and a CVR mask."""
    ctr = _load_task_mask(ctr_mask_file, Task.CTR, "CTR_MASK_FILE")
    cvr = _load_task_mask(cvr_mask_file, Task.CVR, "CVR_MASK_FILE")
    try:
        stats = masking.overlap_stats(ctr, cvr)
    except ShapeError as exc:
        raise DataError(f"{ctr_mask_file} and {cvr_mask_file} do not match: {exc}") from None
    click.echo(stats.to_text())
    for line in stats.to_kv_lines():
        click.echo(line)


def main(argv=None) -> int:
    """Run one command; the exception's type alone picks the exit code:
    click's own errors and ConfigError 2, DataError and OSError 3, and
    anything else 4, named by its type."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help etc.
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return EXIT_CONFIG
    except click.Abort:
        return EXIT_CONFIG
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:   # OSError: a named file the OS refused
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
