"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py`. The empirical criteria (8, 9) are
deterministic given their hardcoded seeds, so they reproduce exactly.
"""

import math
import time

import numpy as np
import pytest

from gradcheck import finite_diff_check
from lotshare import masking, metrics, model, nn, training
from lotshare.cli import comparison_table, main as cli_main
from lotshare.data import SyntheticSpec, batches, generate
from lotshare.masking import TaskMask, prune_connections, prune_neurons
from lotshare.metrics import MetricsReport
from lotshare.model import (CrossKind, ModelConfig, SharingMode, Task,
                            cross_output_width)
from lotshare.training import (TrainConfig, evaluate_artifacts, generate_masks,
                               joint_train, train_model, warmup)


def _report(capsys, n, desc, ok):
    with capsys.disabled():
        print(f"criterion {n:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {desc}"


def std_model_config(cards, mode, emb=8, hidden=(64, 32, 16)):
    dims = (cross_output_width(len(cards), emb, CrossKind.PAIRWISE_DOT), *hidden, 1)
    return ModelConfig(cards, emb, dims, CrossKind.PAIRWISE_DOT, mode)


def test_criterion_1_table_arithmetic(capsys):
    reports = [
        MetricsReport(mode="single_task",
                      metrics={"cvr_mse": 0.13688, "ctr_auc": 0.78572}),
        MetricsReport(mode="layer_share",
                      metrics={"cvr_mse": 0.13563, "ctr_auc": 0.78808}),
        MetricsReport(mode="connection_share",
                      metrics={"cvr_mse": 0.13226, "ctr_auc": 0.78874}),
        MetricsReport(mode="neuron_share",
                      metrics={"cvr_mse": 0.13531, "ctr_auc": 0.78346}),
    ]
    table = comparison_table(reports)
    rows = {line.split()[0]: line for line in table.splitlines()[1:]}
    expected = {
        "layer_share": ("+0.00125 (+0.91%)", "+0.00236 (+0.30%)"),
        "connection_share": ("+0.00462 (+3.38%)", "+0.00302 (+0.38%)"),
        "neuron_share": ("+0.00157 (+1.15%)", "-0.00226 (-0.29%)"),
    }
    ok = all(cvr in rows[mode] and ctr in rows[mode]
             for mode, (cvr, ctr) in expected.items())
    ok = ok and all(f"{v:.5f}" in table
                    for v in (0.13688, 0.13563, 0.13226, 0.13531,
                              0.78572, 0.78808, 0.78874, 0.78346))
    _report(capsys, 1, "Table 2 gain cells reproduced exactly", ok)


def test_criterion_2_gradient_check(capsys):
    cfg = std_model_config((4, 3, 5), SharingMode.CONNECTION_SHARE,
                           emb=3, hidden=(5, 3))
    n_params = sum(b.size for b in model.init_params(cfg, 0).blocks())
    assert n_params <= 1000, n_params
    worst = max(finite_diff_check(cfg, task, seed=seed, h=1e-4)
                for seed in range(20) for task in (Task.CTR, Task.CVR))
    _report(capsys, 2, f"max finite-difference error {worst:.2e} < 1e-3 "
                       f"over 20 seeds, {n_params} params", worst < 1e-3)


def test_criterion_3_mask_freeze_200_batches(capsys):
    ds = generate(SyntheticSpec(n_users=60, n_items=60,
                                field_cardinalities=(8,) * 4, latent_dim=4,
                                n_impressions=4000, seed=0))
    cfg = std_model_config(ds.field_cardinalities, SharingMode.CONNECTION_SHARE,
                           emb=4, hidden=(16, 8))
    tcfg = TrainConfig(seed=0, batch_size=64, n_pruning=2, joint_epochs=4)
    params = model.init_params(cfg, tcfg.seed)
    warmup(params, ds, cfg, tcfg)
    masks, best_i = generate_masks(params, ds, cfg, tcfg)
    best = {t: masks[t][best_i[t]] for t in (Task.CTR, Task.CVR)}
    prev = [w.copy() for w in params.init_snapshot.mlp_weights]
    checked = 0
    violations = 0

    def hook(batch, p):
        nonlocal checked, violations
        if checked < 200:
            for i, w in enumerate(p.mlp_weights):
                frozen = best[batch.task].layers[i] == 0
                if not (w[frozen] == prev[i][frozen]).all():
                    violations += 1
            checked += 1
        for i, w in enumerate(p.mlp_weights):
            prev[i] = w.copy()

    joint_train(params, best, ds, cfg, tcfg, step_hook=hook)
    _report(capsys, 3, f"mask-frozen connections bit-identical over "
                       f"{checked} batches", checked >= 200 and violations == 0)


def test_criterion_4_rewind_identity(capsys):
    ds = generate(SyntheticSpec(n_users=40, n_items=40,
                                field_cardinalities=(8,) * 4, latent_dim=4,
                                n_impressions=1500, seed=1))
    ok = True
    for mode in (SharingMode.CONNECTION_SHARE, SharingMode.NEURON_SHARE):
        cfg = std_model_config(ds.field_cardinalities, mode, emb=4, hidden=(12, 8))
        tcfg = TrainConfig(seed=1, batch_size=64, n_pruning=3, sharing_mode=mode)
        params = model.init_params(cfg, tcfg.seed)
        warmup(params, ds, cfg, tcfg)
        generate_masks(params, ds, cfg, tcfg)
        ok = ok and all((live == snap).all() for live, snap
                        in zip(params.blocks(), params.init_snapshot.blocks()))
    _report(capsys, 4, "live weights equal warmup snapshot bit-exactly "
                       "after mask generation", ok)


def _disjoint_masks(mlp_weights, halves):
    """Block-diagonal partition: task 0 owns the first half of every hidden
    layer, task 1 the second; the input and output stay full width."""
    out = {}
    for hi, task in enumerate((Task.CTR, Task.CVR)):
        layers = []
        for li, w in enumerate(mlp_weights):
            m = np.zeros_like(w)
            rsel = slice(None) if li == 0 else halves[li - 1][hi]
            csel = slice(None) if li == len(mlp_weights) - 1 else halves[li][hi]
            m[rsel, csel] = 1.0
            layers.append(m)
        out[task] = TaskMask(layers, task)
    return out


def test_criterion_5_layer_share_special_case(capsys):
    """Disjoint block masks on one shared net reproduce two separate
    half-width towers step for step. Embeddings and biases are held fixed on
    both sides so every trainable weight belongs to exactly one task."""
    ds = generate(SyntheticSpec(n_users=40, n_items=40,
                                field_cardinalities=(8,) * 4, latent_dim=4,
                                n_impressions=3000, seed=2))
    cards = ds.field_cardinalities
    emb, h1, h2 = 4, 12, 8
    width_in = cross_output_width(len(cards), emb, CrossKind.PAIRWISE_DOT)
    cfg = ModelConfig(cards, emb, (width_in, 2 * h1, 2 * h2, 1),
                      CrossKind.PAIRWISE_DOT, SharingMode.CONNECTION_SHARE)
    sub_cfg = ModelConfig(cards, emb, (width_in, h1, h2, 1),
                          CrossKind.PAIRWISE_DOT, SharingMode.SINGLE_TASK)
    shared = model.init_params(cfg, 3)
    halves = [(slice(0, h1), slice(h1, 2 * h1)), (slice(0, h2), slice(h2, 2 * h2))]
    masks = _disjoint_masks(shared.mlp_weights, halves)

    # separate towers: slices of the shared init, same embeddings and biases,
    # written into the tower's own parameter views
    towers = {}
    for hi, task in enumerate((Task.CTR, Task.CVR)):
        t = model.init_params(sub_cfg, 3)
        hid, out_h = halves[0][hi], halves[1][hi]
        sources = [*shared.embeddings,
                   shared.mlp_weights[0][:, hid], shared.mlp_weights[1][hid, out_h],
                   shared.mlp_weights[2][out_h, :],
                   shared.mlp_biases[0][hid], shared.mlp_biases[1][out_h],
                   shared.mlp_biases[2]]
        for dst, src in zip(t.blocks(), sources, strict=True):
            dst[...] = src
        towers[task] = t

    lr = 1e-3
    shared_opt = nn.Adam(shared, lr)
    tower_opts = {t: nn.Adam(towers[t], lr) for t in towers}
    zero_emb = [np.zeros_like(e) for e in shared.embeddings]
    zero_bias = [np.zeros_like(b) for b in shared.mlp_biases]
    zero_bias_sub = {t: [np.zeros_like(b) for b in towers[t].mlp_biases]
                     for t in towers}
    ones_w = {t: [np.ones_like(w) for w in towers[t].mlp_weights] for t in towers}

    max_diff = 0.0
    steps = 0
    for epoch in range(10):
        if steps >= 100:
            break
        for batch in batches(ds, (Task.CTR, Task.CVR), 64, seed=4, epoch=epoch):
            if steps >= 100:
                break
            task = batch.task
            # shared net, masked, bias/embedding updates gated off
            preds, cache = model.forward(batch.ids, shared, cfg, task,
                                         mask=masks[task], want_cache=True)
            if task is Task.CTR:
                dlogit = (preds - batch.labels) / batch.n
            else:
                dlogit = 2 * (preds - batch.labels) * preds * (1 - preds) / batch.n
            grads = model.backward(dlogit, cache, shared, cfg, mask=masks[task])
            shared_opt.step(grads, nn.Gate(zero_emb + masks[task].layers + zero_bias,
                                           shared.layout))

            # the task's own half-width tower on the same batch
            tw = towers[task]
            p2, c2 = model.forward(batch.ids, tw, sub_cfg, task, want_cache=True)
            if task is Task.CTR:
                d2 = (p2 - batch.labels) / batch.n
            else:
                d2 = 2 * (p2 - batch.labels) * p2 * (1 - p2) / batch.n
            g2 = model.backward(d2, c2, tw, sub_cfg)
            tower_opts[task].step(g2, nn.Gate(zero_emb + ones_w[task] + zero_bias_sub[task],
                                              tw.layout))

            for t in (Task.CTR, Task.CVR):
                a = model.forward(batch.ids, shared, cfg, t, mask=masks[t])
                b = model.forward(batch.ids, towers[t], sub_cfg, t)
                max_diff = max(max_diff, float(np.max(np.abs(a - b))))
            steps += 1
    _report(capsys, 5, f"disjoint masks match separate towers over {steps} "
                       f"steps, max pred diff {max_diff:.2e}",
            steps >= 100 and max_diff <= 1e-10)


def test_criterion_6_pruning_schedule(capsys):
    rng = nn.make_rng(5)
    ok = True
    for variant, prune in (("connection", prune_connections),
                           ("neuron", prune_neurons)):
        w = [rng.standard_normal((40, 24)), rng.standard_normal((24, 12)),
             rng.standard_normal((12, 1))]
        mask = TaskMask.all_ones(w, Task.CTR)
        total = mask.survivor_count()
        q = 0.2
        for r in range(1, 6):
            prev_frac = mask.survivor_fraction()
            if variant == "connection":
                surviving = np.concatenate(
                    [np.abs(x[m != 0]) for x, m in zip(w, mask.layers)])
                x_thr = sorted(surviving)[math.ceil(q * len(surviving)) - 1]
                expected = int((surviving >= x_thr).sum())
            mask = prune(w, mask, q)
            frac = mask.survivor_fraction()
            ok = ok and (0.8 ** r) - 1e-12 <= frac <= prev_frac
            if variant == "connection":
                ok = ok and mask.survivor_count() == expected
            ok = ok and mask.pruning_round == r
    _report(capsys, 6, "survivor schedule within [0.8^r, prev] and exact vs "
                       "sort oracle, r <= 5, both variants", ok)


def test_criterion_7_oracle_equivalences(capsys):
    ok = True
    # AUC vs O(n^2) pairwise oracle with ties, n = 200
    rng = nn.make_rng(6)
    labels = (rng.random(200) < 0.4).astype(int)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(200), 2)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
               for p in pos for n in neg)
    ok = ok and abs(metrics.auc(labels, scores) - wins / (len(pos) * len(neg))) <= 1e-12

    # quantile threshold vs full sort, n = 10000
    vals = rng.random(10000)
    s = sorted(vals)
    for q in (0.01, 0.2, 0.5, 0.99):
        ok = ok and masking.quantile_threshold(vals, q) == s[math.ceil(q * 10000) - 1]

    # masked forward vs weight-zeroing oracle, exact
    cfg = std_model_config((6, 6, 6), SharingMode.CONNECTION_SHARE,
                           emb=4, hidden=(10, 6))
    p = model.init_params(cfg, 7)
    mask = TaskMask([(rng.random(w.shape) < 0.5).astype(float)
                     for w in p.mlp_weights], Task.CVR)
    ids = np.stack([rng.integers(0, c, 50) for c in cfg.field_cardinalities], axis=1)
    zeroed = p.copy()
    for w, m in zip(zeroed.mlp_weights, mask.layers):
        w *= m
    ok = ok and (model.forward(ids, p, cfg, Task.CVR, mask=mask)
                 == model.forward(ids, zeroed, cfg, Task.CVR)).all()
    _report(capsys, 7, "AUC pairwise, quantile sort, and masked-forward "
                       "oracles all agree", ok)


def test_criterion_8_synthetic_mtl_gain(capsys):
    t0 = time.time()
    rels = []
    wins = 0
    for seed in range(5):
        ds = generate(SyntheticSpec(n_impressions=50000, task_correlation=0.8,
                                    seed=seed))
        mse = {}
        for mode in (SharingMode.SINGLE_TASK, SharingMode.CONNECTION_SHARE):
            cfg = std_model_config(ds.field_cardinalities, mode)
            tcfg = TrainConfig(seed=seed, sharing_mode=mode, joint_epochs=8,
                               omega_ctr=0.5, omega_cvr=0.5, learning_rate=3e-3)
            art = train_model(ds, cfg, tcfg)
            mse[mode] = evaluate_artifacts(art, ds, cfg)["cvr_mse"]
        s, c = mse[SharingMode.SINGLE_TASK], mse[SharingMode.CONNECTION_SHARE]
        rels.append((s - c) / s)
        wins += c < s
    mean_rel = float(np.mean(rels))
    elapsed = time.time() - t0
    _report(capsys, 8, f"connection_share beats single_task CVR MSE in "
                       f"{wins}/5 seeds, mean reduction {mean_rel:+.2%}, "
                       f"{elapsed:.0f}s",
            wins >= 4 and mean_rel > 0.005 and elapsed < 600)


def test_criterion_9_interior_optimum(capsys):
    interior = 0
    for seed in range(5):
        ds = generate(SyntheticSpec(latent_dim=4, n_impressions=5000,
                                    task_correlation=0.8, seed=seed))
        cfg = std_model_config(ds.field_cardinalities,
                               SharingMode.CONNECTION_SHARE, hidden=(32, 16))
        tcfg = TrainConfig(seed=seed, n_pruning=6, prune_fraction=0.2,
                           mask_epochs=5, learning_rate=3e-3, batch_size=64)
        params = model.init_params(cfg, tcfg.seed)
        warmup(params, ds, cfg, tcfg)
        _, best_i = generate_masks(params, ds, cfg, tcfg)
        if 0 < best_i[Task.CVR] < tcfg.n_pruning:
            interior += 1
    _report(capsys, 9, f"CVR sweep has an interior best round in "
                       f"{interior}/5 seeds (n_pruning=6, q=0.2)", interior >= 3)


def test_criterion_10_determinism(capsys, tmp_path):
    cfg_text = (
        "mode = connection_share\n"
        "model.embedding_dim = 4\n"
        "model.hidden_dims = 12,8\n"
        "train.batch_size = 64\n"
        "train.n_pruning = 2\n"
        "data.n_users = 40\n"
        "data.n_items = 40\n"
        "data.field_cardinalities = 8,8,8,8\n"
        "data.latent_dim = 4\n"
        "data.n_impressions = 1200\n"
    )
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg_text)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli_main(["train", "--config", str(cfg_file), "--out", str(d)]) == 0
    names = ["model.ckpt", "mask_ctr.mask", "mask_cvr.mask", "report.kv",
             "report.txt", "train.log"]
    names += [f"masks/{t}_round{r}.mask" for t in ("ctr", "cvr") for r in range(3)]
    ok = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
             for n in names)
    _report(capsys, 10, "reruns produce byte-identical checkpoints, masks, "
                        "and reports", ok)
