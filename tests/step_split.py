"""By hand, not collected by pytest: where the time of one masked train step
goes, at the default config.

It generates the default ``data.*`` dataset, builds the default model
(embedding 8, hidden 64,32,16, pairwise-dot cross), prunes an all-ones CTR
mask three rounds at the default q, as the mask search's round 3 would, and
takes the first CTR batch of the default size (256 rows). Then it times
each op of ``training._train_step`` on that batch with ``timeit``, best of
``--repeat`` runs of ``--number`` calls, and prints one line per op in
microseconds a call:

- embed, cross forward and MLP forward (the masked weights included);
- loss, ``training._loss_and_dlogit``;
- backward, the whole of ``model.backward``, and its parts: the cross
  backward, the table gradient, and the MLP backward, which is what the
  backward takes beyond the other two;
- the Adam step gated by the mask's per-block gate, the same step given a
  fresh list of that gate each call, so that it is scanned every step, and
  the ungated step.

BLAS runs on one thread, pinned before numpy is imported:

    PYTHONPATH=src python tests/step_split.py
"""

import argparse
import os
import timeit

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from lotshare import masking, model, nn, training  # noqa: E402
from lotshare.config import ExperimentConfig  # noqa: E402
from lotshare.data import batches, generate  # noqa: E402
from lotshare.model import Task  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=200, help="calls per timed run")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs; the best counts")
    args = parser.parse_args()

    exp = ExperimentConfig()
    ds = generate(exp.synth)
    cfg = exp.model_config(ds.field_cardinalities)
    params = model.init_params(cfg, exp.train.seed)
    mask = masking.TaskMask.all_ones(params.mlp_weights, Task.CTR)
    for _ in range(3):
        mask = masking.prune_connections(params.mlp_weights, mask, exp.train.prune_fraction)
    batch = next(b for b in batches(ds, [Task.CTR], exp.train.batch_size, exp.train.seed, 0))

    emb, rows = model.embed(batch.ids, params)
    x = model.feature_cross(emb, cfg.cross_kind)
    weights, biases = model.task_weights(params, cfg, Task.CTR, mask)
    preds, cache = model.forward(batch.ids, params, cfg, Task.CTR, mask=mask, want_cache=True)
    _, dlogit = training._loss_and_dlogit(cache.logits, preds, batch.labels, Task.CTR)
    d_x = dlogit[:, None]   # the MLP backward's output, the cross backward's input
    for li in range(len(weights) - 1, -1, -1):
        if li < len(weights) - 1:
            d_x = d_x * (cache.layer_inputs[li + 1] > 0)
        d_x = d_x @ weights[li].T
    d_emb = model._cross_backward(emb, d_x, cfg.cross_kind)
    grads = model.backward(dlogit, cache, params, cfg, mask=mask)
    gate = mask.update_gate(params)
    opt = nn.Adam(params, exp.train.learning_rate)

    ops = {
        "embed": lambda: model.embed(batch.ids, params),
        "cross forward": lambda: model.feature_cross(emb, cfg.cross_kind),
        "MLP forward": lambda: model.mlp_forward(
            x, *model.task_weights(params, cfg, Task.CTR, mask)),
        "loss": lambda: training._loss_and_dlogit(cache.logits, preds, batch.labels, Task.CTR),
        "backward": lambda: model.backward(dlogit, cache, params, cfg, mask=mask),
        "cross backward": lambda: model._cross_backward(emb, d_x, cfg.cross_kind),
        "table gradient": lambda: model._table_grads(rows, d_emb, len(params.tables)),
        "Adam gated": lambda: opt.step(grads, gate),
        "Adam gated, rescanned": lambda: opt.step(grads, list(gate)),
        "Adam ungated": lambda: opt.step(grads),
    }
    best = {name: min(timeit.repeat(op, number=args.number, repeat=args.repeat)) / args.number
            for name, op in ops.items()}
    best["MLP backward"] = best["backward"] - best["cross backward"] - best["table gradient"]
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, batch {batch.n}, "
          f"mask round {mask.pruning_round} ({mask.survivor_fraction():.3f} left), "
          f"best of {args.repeat} x {args.number} calls")
    for name, seconds in best.items():
        print(f"{name:<24}{seconds * 1e6:8.1f} us")


if __name__ == "__main__":
    main()
