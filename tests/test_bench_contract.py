"""The contract between lotshare and the benchmark's tracer.

``bench/tracing.py`` patches lotshare functions by module attribute name
and reads the arguments of ``nn.Adam.step`` and ``model.backward``. A
refactor that renames a traced function, or changes what those calls
receive, breaks ``bench/run.py --trace 1``; these tests make it fail here
instead. They read ``bench/tracing.py`` and never change it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lotshare import cli, model, nn, training  # noqa: F401  (cli: a traced module)
from lotshare.data import SyntheticSpec, generate
from lotshare.masking import TaskMask
from lotshare.model import CrossKind, ModelConfig, SharingMode, Task, cross_output_width

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def small_run(mode):
    ds = generate(SyntheticSpec(n_users=20, n_items=20, field_cardinalities=(6, 4, 9),
                                latent_dim=3, n_impressions=600, seed=4))
    cfg = ModelConfig(ds.field_cardinalities, 3,
                      (cross_output_width(3, 3, CrossKind.PAIRWISE_DOT), 8, 6, 4, 1),
                      CrossKind.PAIRWISE_DOT, mode)
    tcfg = training.TrainConfig(batch_size=64, n_pruning=1, sharing_mode=mode, seed=5)
    return ds, cfg, tcfg


def test_every_target_resolves(tracing):
    for mod_name, path in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path}"


def test_adam_attr_counts_every_entry(tracing):
    ds, cfg, _ = small_run(SharingMode.CONNECTION_SHARE)
    params = model.init_params(cfg, 1)
    mask = TaskMask.all_ones(params.mlp_weights, Task.CTR)
    ids = ds.task(Task.CTR).ids[:32]
    _, cache = model.forward(ids, params, cfg, Task.CTR, mask=mask, want_cache=True)
    grads = model.backward(np.full(32, 0.01), cache, params, cfg, mask=mask)
    opt = nn.Adam(params, 0.01)
    gated = sum(w.size for w in params.mlp_weights)
    size = params.layout.size
    assert tracing._adam_attr((opt, grads, mask.update_gate(params)), {}) == (size, gated)
    assert tracing._adam_attr((opt, grads), {"update_masks": None}) == (size, 0)
    got_ids, got_cfg = tracing._backward_attr((None, cache, params, cfg), {})
    assert got_ids is cache.ids and got_cfg is cfg


@pytest.mark.parametrize("mode", [SharingMode.CONNECTION_SHARE, SharingMode.LAYER_SHARE])
def test_traced_training_run(tracing, mode):
    """A traced run records every train step's Adam call over the whole
    layout and leaves the run's bits alone."""
    ds, cfg, tcfg = small_run(mode)
    plain = training.train_model(ds, cfg, tcfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.op") as lo:
            art = training.train_model(ds, cfg, tcfg)
    finally:
        tracer.uninstall()
    assert not hasattr(nn.Adam.step, "__wrapped__")   # uninstalled
    layers = tracing.layer_metrics(tracer.spans, lo, len(tracer.spans))
    assert set(layers) <= set(tracing.PER_LAYER)
    assert layers["training.steps"] == layers["nn.adam_n"] == layers["model.backward_n"] > 0
    assert layers["nn.adam_elems_per_step"] == art.params.layout.size
    assert 0.0 < layers["model.emb_rows_touched_frac"] <= 1.0
    assert art.params.flat.tobytes() == plain.params.flat.tobytes()
