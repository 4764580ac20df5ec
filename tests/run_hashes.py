"""By hand, not collected by pytest: the sha256 of every file a small run
writes, to show that a refactor moved no output bit.

It runs, through ``cli.main`` and into a temp dir, ``generate-data`` and
then ``train`` in all four sharing modes on the acceptance gate's
criterion-10 config, training from the generated TSV. Paths are relative
to the temp dir, so each run's ``config.cfg`` is the same. It prints one
``mode file sha256`` line per file, ``data`` being the generate-data
output. Run it on two trees and diff the outputs:

    PYTHONPATH=src python tests/run_hashes.py > hashes.txt
"""

import hashlib
import sys
import tempfile
from contextlib import chdir, redirect_stdout
from pathlib import Path

from lotshare.cli import main
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


def run(*argv: str) -> None:
    with redirect_stdout(sys.stderr):
        rc = main(list(argv))
    if rc != 0:
        sys.exit(f"lotshare {' '.join(argv)} exited {rc}")


def hash_lines(name: str, root: Path):
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        yield f"{name} {path.relative_to(root).as_posix()} " \
              f"{hashlib.sha256(path.read_bytes()).hexdigest()}"


def main_() -> None:
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        Path("exp.cfg").write_text(CONFIG)
        run("generate-data", "--config", "exp.cfg", "--out", "data")
        lines = list(hash_lines("data", Path("data")))
        for mode in SharingMode:
            run("train", "--config", "exp.cfg", "--mode", mode.value,
                "--dataset", "data/dataset.tsv", "--out", mode.value)
            lines += hash_lines(mode.value, Path(mode.value))
    print("\n".join(lines))


if __name__ == "__main__":
    main_()
