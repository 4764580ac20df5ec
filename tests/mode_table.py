"""By hand, not collected by pytest: every sharing mode on the acceptance
gate's criterion-8 config, one markdown row per seed and mode.

Criterion 8 compares ``connection_share`` with ``single_task`` only. This
script also runs ``layer_share`` and ``neuron_share`` on the same data and
settings, built by ``tests/gate_scan.py``: 50,000 synthetic impressions at
rho 0.8, the criterion's model
dims (embedding 8, hidden 64,32,16, pairwise-dot cross), 8 joint epochs,
omega 0.5/0.5 and learning rate 3e-3; the train seed is the data seed.

Each row gives the CVR test MSE, the CTR test AUC, the best mask round per
task (CTR, CVR) of the modes that search, and the overlap counts of the two
tasks' masks in the shared modes (``layer_share`` counts its fixed towers).
Seeds come from the command line, 0 to 4 by default:

    PYTHONPATH=src python tests/mode_table.py 0 1 2 3 4
"""

import argparse
import sys
import time

from gate_scan import criterion_8_configs, criterion_8_spec
from lotshare import masking, model
from lotshare.data import generate
from lotshare.masking import TaskMask
from lotshare.model import SharingMode, TASKS, Task
from lotshare.training import evaluate_artifacts, train_model


def row(seed: int, ds, mode: SharingMode) -> str:
    cfg, tcfg = criterion_8_configs(ds.field_cardinalities, mode, seed)
    art = train_model(ds, cfg, tcfg)
    scores = evaluate_artifacts(art, ds, cfg)
    rounds = (f"{art.best_i[Task.CTR]}, {art.best_i[Task.CVR]}" if art.best_i else "-")
    if mode is SharingMode.SINGLE_TASK:
        overlap = ["-"] * 4
    else:
        masks = ({t: art.best_mask(t) for t in TASKS} if mode.prunes else
                 {t: TaskMask(layers, t) for t, layers in model.tower_masks(cfg).items()})
        stats = masking.overlap_stats(masks[Task.CTR], masks[Task.CVR])
        overlap = [str(n) for n in (stats.shared, stats.ctr_only, stats.cvr_only, stats.dead)]
    cells = [str(seed), mode.value, f"{scores['cvr_mse']:.5f}", f"{scores['ctr_auc']:.5f}",
             rounds, *overlap]
    return "| " + " | ".join(cells) + " |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=list(range(5)))
    seeds = parser.parse_args().seeds
    print("| seed | mode | CVR MSE | CTR AUC | best rounds | shared | ctr_only "
          "| cvr_only | dead |")
    print("|---|---|---|---|---|---|---|---|---|")
    for seed in seeds:
        t0 = time.time()
        ds = generate(criterion_8_spec(seed))
        for mode in SharingMode:
            print(row(seed, ds, mode), flush=True)
        print(f"seed {seed}: {time.time() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
