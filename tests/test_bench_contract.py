"""The contract between lotshare and the benchmark's code.

``bench/tracing.py`` patches lotshare functions by module attribute name
and reads the arguments of ``nn.Adam.step`` and ``model.backward``, and
``bench/workloads.py`` calls ``train_model``, ``build_report``,
``write_run_dir`` and ``lotshare score`` and checks what they write. A
refactor that renames a traced function, or changes what those calls
receive or return, breaks ``bench/run.py``; these tests make it fail here
instead. They read ``bench/tracing.py`` and ``bench/workloads.py`` and
never change them.
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

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tracing():
    return _bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


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
    assert layers["nn.adam_elems_per_step"] == art.params[Task.CTR].layout.size
    if mode is SharingMode.LAYER_SHARE:   # every step is gated by a tower mask
        params = art.params[Task.CTR]
        gated = sum(w.size for w in params.mlp_weights) / params.layout.size
        assert abs(layers["nn.adam_gated_frac"] - gated) <= 1e-12
    assert 0.0 < layers["model.emb_rows_touched_frac"] <= 1.0
    assert art.params[Task.CTR].flat.tobytes() == plain.params[Task.CTR].flat.tobytes()


def _two_operations(workload, tmp_path):
    """The benchmark's steps on ``workload``: both operations' output
    hashes must be equal and the first one's check must pass."""
    workload.prepare()
    state = workload.setup()
    outs = [tmp_path / f"op{i}" for i in range(2)]
    for out in outs:
        workload.run(state, out)
    hashes = [workload.outputs(out) for out in outs]
    assert hashes[0] and hashes[0] == hashes[1]
    return workload.check(state, outs[0])


@pytest.mark.parametrize("mode,from_tsv", [("single_task", False), ("layer_share", True),
                                           ("connection_share", False),
                                           ("neuron_share", False)])
def test_train_workload(workloads, tmp_path, mode, from_tsv):
    kv = {"mode": mode, "data.n_impressions": "2000"}
    workload = workloads.TrainWorkload(3, tmp_path, kv, from_tsv=from_tsv)
    quality = _two_operations(workload, tmp_path)
    assert set(quality) >= {"ctr_auc", "cvr_mse", "ctr_ne"}


def test_score_workload(workloads, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCORE_CANDIDATES", 400)
    monkeypatch.setattr(workloads, "SCORE_PREP_IMPRESSIONS", 2000)
    quality = _two_operations(workloads.ScoreWorkload(3, tmp_path), tmp_path)
    assert 0.0 < quality["survivor_frac.ctr"] <= 1.0
