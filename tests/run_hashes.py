"""By hand, not collected by pytest: the sha256 of everything the commands
write on a small run, to show that a refactor moved no output bit.

It runs, through ``cli.main`` and into a temp dir, ``generate-data`` and
then ``train`` in all four sharing modes on the acceptance gate's
criterion-10 config, training from the generated TSV. Then ``prune-sweep``
on the same TSV, ``score`` over a fixed, seeded candidates file with the
``connection_share`` run (its ``model.ckpt`` and both masks) and with the
``single_task`` run, ``score`` of every candidate in seeded files of 1,025
and of 8,195 lines with the ``connection_share`` run, and ``mask stats`` on
the ``connection_share`` masks. BLAS rounds by the rows of each call, so
both files are cut by ``training.PREDICT_CHUNK`` (1,024 rows): 1,025 lines
are one full chunk and a 1-row tail, which numpy sends down its
matrix-vector path, and 8,195 lines are eight full chunks and a 3-row tail.
Paths are relative to the temp dir, so each run's ``config.cfg`` is the
same. It prints one ``name file sha256`` line per file, ``data`` being
the generate-data output, and one ``name stdout sha256`` line per command
whose output is its stdout. Then come ``generate-seed<k> arrays sha256``
lines: the arrays ``data.generate_with_trace`` gives for the default
``data.*`` spec (50,000 impressions, so 5-digit ids) at seeds 0 to 2. The
last two lines are ``score`` stdout lines over the 500-line candidates file:
the ``layer_share`` run's one ``model.ckpt`` and no mask, which runs each
task through its fixed tower mask (``model._mask_layers``), and the
``neuron_share`` run with both of its masks. They come last so that the
lines before them compare with the outputs of older trees. Run it on two
trees and diff the outputs:

    PYTHONPATH=src python tests/run_hashes.py > hashes.txt
"""

import hashlib
import io
import sys
import tempfile
from contextlib import chdir, redirect_stdout
from pathlib import Path

import numpy as np

from lotshare.cli import main
from lotshare.data import SyntheticSpec, generate_with_trace
from lotshare.model import SharingMode

CONFIG = """\
mode = connection_share
model.embedding_dim = 4
model.hidden_dims = 12,8
train.batch_size = 64
train.n_pruning = 2
data.n_users = 40
data.n_items = 40
data.field_cardinalities = 8,8,8,8
data.latent_dim = 4
data.n_impressions = 1200
"""


def run(*argv: str) -> str:
    """The stdout of ``lotshare argv``; exits unless the command exits 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    if rc != 0:
        sys.exit(f"lotshare {' '.join(argv)} exited {rc}")
    return out.getvalue()


def stdout_line(name: str, text: str) -> str:
    return f"{name} stdout {hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def write_candidates(path: Path, n: int = 500) -> None:
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 8, (n, 4)).tolist()
    lengths = rng.uniform(1.0, 600.0, n).round(1).tolist()
    path.write_text("".join(f"{','.join(map(str, row))}\t{length!r}\n"
                            for row, length in zip(ids, lengths)))


def hash_lines(name: str, root: Path):
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        yield f"{name} {path.relative_to(root).as_posix()} " \
              f"{hashlib.sha256(path.read_bytes()).hexdigest()}"


def generate_line(seed: int) -> str:
    """One line: the sha256 of every array of ``generate_with_trace`` on the
    default spec at ``seed``, each task's ids, labels and split, then the
    trace by name."""
    dataset, trace = generate_with_trace(SyntheticSpec(seed=seed))
    digest = hashlib.sha256()
    for td in dataset.tasks.values():
        for array in (td.ids, td.labels, td.split):
            digest.update(array.tobytes())
    for name in sorted(trace):
        digest.update(trace[name].tobytes())
    return f"generate-seed{seed} arrays {digest.hexdigest()}"


def score_run(mode: str, *masks: str) -> str:
    """``score`` stdout over ``candidates.tsv`` with the run dir ``mode``'s
    ``model.ckpt`` for both tasks, and the given mask files of that dir."""
    mask_args = [arg for task, mask in zip(("ctr", "cvr"), masks)
                 for arg in (f"--{task}-mask", f"{mode}/{mask}")]
    return stdout_line(f"score-{mode}", run(
        "score", "--ctr-checkpoint", f"{mode}/model.ckpt", "--cvr-checkpoint",
        f"{mode}/model.ckpt", *mask_args, "-k", "100", "--gamma", "0.5", "candidates.tsv"))


def main_() -> None:
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        Path("exp.cfg").write_text(CONFIG)
        run("generate-data", "--config", "exp.cfg", "--out", "data")
        lines = list(hash_lines("data", Path("data")))
        for mode in SharingMode:
            run("train", "--config", "exp.cfg", "--mode", mode.value,
                "--dataset", "data/dataset.tsv", "--out", mode.value)
            lines += hash_lines(mode.value, Path(mode.value))
        run("prune-sweep", "--config", "exp.cfg", "--dataset", "data/dataset.tsv",
            "--out", "sweep")
        lines += hash_lines("prune-sweep", Path("sweep"))
        write_candidates(Path("candidates.tsv"))
        cs, st = "connection_share", "single_task"
        lines.append(stdout_line("score-connection_share", run(
            "score", "--ctr-checkpoint", f"{cs}/model.ckpt", "--cvr-checkpoint",
            f"{cs}/model.ckpt", "--ctr-mask", f"{cs}/mask_ctr.mask", "--cvr-mask",
            f"{cs}/mask_cvr.mask", "-k", "100", "--gamma", "0.5", "candidates.tsv")))
        lines.append(stdout_line("score-single_task", run(
            "score", "--ctr-checkpoint", f"{st}/ctr.ckpt", "--cvr-checkpoint",
            f"{st}/cvr.ckpt", "-k", "100", "--gamma", "0.5", "candidates.tsv")))
        for n in (1025, 8195):
            write_candidates(Path(f"candidates_{n}.tsv"), n)
            lines.append(stdout_line(f"score-connection_share-{n}", run(
                "score", "--ctr-checkpoint", f"{cs}/model.ckpt", "--cvr-checkpoint",
                f"{cs}/model.ckpt", "--ctr-mask", f"{cs}/mask_ctr.mask", "--cvr-mask",
                f"{cs}/mask_cvr.mask", "-k", str(n), f"candidates_{n}.tsv")))
        lines.append(stdout_line("mask-stats", run(
            "mask", "stats", f"{cs}/mask_ctr.mask", f"{cs}/mask_cvr.mask")))
        last = [score_run("layer_share"),
                score_run("neuron_share", "mask_ctr.mask", "mask_cvr.mask")]
    lines += map(generate_line, range(3))
    lines += last
    print("\n".join(lines))


if __name__ == "__main__":
    main_()
