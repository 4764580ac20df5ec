"""Central finite-difference gradient oracle, shared by unit and acceptance tests.

Coordinates whose perturbation flips a ReLU activation sign are skipped: the
loss is not differentiable there and a two-sided difference is meaningless.
"""

import numpy as np

from lotshare import model, nn
from lotshare.model import Task


def loss_of(params, cfg, task, ids, labels, mask=None):
    preds = model.forward(ids, params, cfg, task, mask=mask)
    if task is Task.CTR:
        return float(np.mean(-labels * np.log(preds) - (1 - labels) * np.log(1 - preds)))
    return float(np.mean((preds - labels) ** 2))


def analytic_grads(params, cfg, task, ids, labels, mask=None):
    preds, cache = model.forward(ids, params, cfg, task, mask=mask, want_cache=True)
    n = len(labels)
    if task is Task.CTR:
        dlogit = (preds - labels) / n
    else:
        dlogit = 2 * (preds - labels) * preds * (1 - preds) / n
    return model.backward(dlogit, cache, params, cfg, mask=mask)


def _relu_signs(params, cfg, task, ids, mask=None):
    _, cache = model.forward(ids, params, cfg, task, mask=mask, want_cache=True)
    return [h > 0 for h in cache.layer_inputs[1:]]


def max_relative_error(cfg, task, params, ids, labels, mask=None, h=1e-4):
    grads = analytic_grads(params, cfg, task, ids, labels, mask=mask)
    base_signs = _relu_signs(params, cfg, task, ids, mask=mask)
    max_rel = 0.0
    for blk, gblk in zip(params.blocks(), grads.dense.blocks()):
        flat, gflat = blk.ravel(), gblk.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_of(params, cfg, task, ids, labels, mask=mask)
            signs_p = _relu_signs(params, cfg, task, ids, mask=mask)
            flat[i] = orig - h
            lm = loss_of(params, cfg, task, ids, labels, mask=mask)
            signs_m = _relu_signs(params, cfg, task, ids, mask=mask)
            flat[i] = orig
            kink = any((sp != sb).any() or (sm != sb).any()
                       for sp, sm, sb in zip(signs_p, signs_m, base_signs))
            if kink:
                continue
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[i]), 1e-8)
            max_rel = max(max_rel, abs(num - gflat[i]) / denom)
    return max_rel


def finite_diff_check(cfg, task, seed, h=1e-4, mask=None, n=8):
    params = model.init_params(cfg, seed)
    rng = nn.make_rng(seed + 1000)
    ids = np.stack([rng.integers(0, c, n) for c in cfg.field_cardinalities], axis=1)
    labels = (rng.random(n) if task is Task.CVR
              else (rng.random(n) < 0.5).astype(float))
    return max_relative_error(cfg, task, params, ids, labels, mask=mask, h=h)
