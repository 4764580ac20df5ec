"""By hand, not collected by pytest: the acceptance gate's criteria 8 and 9
on more seeds than the gate reads.

Criterion 8 (``tests/test_acceptance.py::test_criterion_8_synthetic_mtl_gain``)
trains ``single_task`` and ``connection_share`` on 50,000 synthetic
impressions at rho 0.8, with the gate's model dims (embedding 8, hidden
64,32,16, pairwise-dot cross), 8 joint epochs, omega 0.5/0.5 and learning
rate 3e-3, and compares their CVR test MSE. Criterion 9
(``test_criterion_9_interior_optimum``) runs the ``connection_share`` mask
search on 5,000 impressions of latent dim 4 (hidden 32,16, 6 pruning rounds
at q 0.2, 5 epochs a round, learning rate 3e-3, batch 64) and asks whether
CVR's best round is interior, neither round 0 nor the last. Both configs are
copies of the gate's, built here once (``tests/mode_table.py`` reads
criterion 8's too); ``tests/test_gate_scan.py`` checks that they are what
the gate passes. The train seed is the data seed.

Each seed prints one markdown row: criterion 8's two CVR test MSEs and
whether ``connection_share`` wins, then criterion 9's CVR best round and
whether it is interior. The totals follow, in the gate's own words; on
seeds 0 to 4 they are the gate's lines. Seeds come from the command line,
0 to 19 by default:

    PYTHONPATH=src python tests/gate_scan.py 0 1 2 3 4
"""

import argparse

import numpy as np

from lotshare import model
from lotshare.data import SyntheticSpec, generate
from lotshare.model import (CrossKind, ModelConfig, SharingMode, Task,
                            cross_output_width)
from lotshare.training import (TrainConfig, evaluate_artifacts, generate_masks,
                               train_model, warmup)


def gate_model_config(cards, mode, hidden) -> ModelConfig:
    dims = (cross_output_width(len(cards), 8, CrossKind.PAIRWISE_DOT), *hidden, 1)
    return ModelConfig(cards, 8, dims, CrossKind.PAIRWISE_DOT, mode)


def criterion_8_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(n_impressions=50000, task_correlation=0.8, seed=seed)


def criterion_8_configs(cards, mode: SharingMode, seed: int) -> tuple[ModelConfig, TrainConfig]:
    return (gate_model_config(cards, mode, (64, 32, 16)),
            TrainConfig(seed=seed, sharing_mode=mode, joint_epochs=8,
                        omega_ctr=0.5, omega_cvr=0.5, learning_rate=3e-3))


def criterion_9_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(latent_dim=4, n_impressions=5000, task_correlation=0.8, seed=seed)


def criterion_9_configs(cards, seed: int) -> tuple[ModelConfig, TrainConfig]:
    return (gate_model_config(cards, SharingMode.CONNECTION_SHARE, (32, 16)),
            TrainConfig(seed=seed, n_pruning=6, prune_fraction=0.2,
                        mask_epochs=5, learning_rate=3e-3, batch_size=64))


def criterion_8(seed: int) -> dict[SharingMode, float]:
    """CVR test MSE of each mode criterion 8 compares."""
    ds = generate(criterion_8_spec(seed))
    mse = {}
    for mode in (SharingMode.SINGLE_TASK, SharingMode.CONNECTION_SHARE):
        cfg, tcfg = criterion_8_configs(ds.field_cardinalities, mode, seed)
        mse[mode] = evaluate_artifacts(train_model(ds, cfg, tcfg), ds, cfg)["cvr_mse"]
    return mse


def criterion_9(seed: int) -> tuple[int, int]:
    """CVR's best mask round in criterion 9's search, and its round count."""
    ds = generate(criterion_9_spec(seed))
    cfg, tcfg = criterion_9_configs(ds.field_cardinalities, seed)
    params = model.init_params(cfg, tcfg.seed)
    warmup(params, ds, cfg, tcfg)
    _, best_i = generate_masks(params, ds, cfg, tcfg)
    return best_i[Task.CVR], tcfg.n_pruning


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=list(range(20)))
    seeds = parser.parse_args().seeds
    print("| seed | single_task CVR MSE | connection_share CVR MSE | c8 win "
          "| c9 CVR best round | c9 interior |")
    print("|---|---|---|---|---|---|")
    rels, wins, interior = [], 0, 0
    for seed in seeds:
        mse = criterion_8(seed)
        s, c = mse[SharingMode.SINGLE_TASK], mse[SharingMode.CONNECTION_SHARE]
        rels.append((s - c) / s)
        wins += c < s
        best, rounds = criterion_9(seed)
        inside = 0 < best < rounds
        interior += inside
        print(f"| {seed} | {s:.5f} | {c:.5f} | {'yes' if c < s else 'no'} | {best} "
              f"| {'yes' if inside else 'no'} |", flush=True)
    print(f"criterion 8: connection_share beats single_task CVR MSE in {wins}/{len(seeds)} "
          f"seeds, mean reduction {float(np.mean(rels)):+.2%}")
    print(f"criterion 9: CVR sweep has an interior best round in {interior}/{len(seeds)} "
          "seeds (n_pruning=6, q=0.2)")


if __name__ == "__main__":
    main()
