"""The compact table gradient against the dense formulations it replaced
(the full-table bincount and the per-field embedding loop), and the lazy
Adam step over the tables against a per-entry lazy reference. Every
comparison is on bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import model, nn, training
from lotshare.data import Dataset, SyntheticSpec, TaskData, batches, generate
from lotshare.errors import FeatureIdError
from lotshare.masking import TaskMask
from lotshare.model import CrossKind, ModelConfig, SharingMode, Task, cross_output_width

from test_flat_params import PerBlockAdam, flat_bytes, named_rows
from test_model import embedding_grads


def bincount_embedding_grads(ids, d_emb, cardinalities, size):
    """Reference: the full-size embedding gradient as ``backward`` built it
    before the compact form, one bincount over every table entry."""
    d = d_emb.shape[2]
    sizes = np.array(cardinalities) * d
    offsets = np.cumsum(sizes) - sizes
    bins = (ids * d + offsets)[:, :, None] + np.arange(d)
    return np.bincount(bins.ravel(), weights=d_emb.ravel(), minlength=size)


def per_field_embed(ids, embeddings):
    """Reference: the per-field lookup ``embed`` did before one gather."""
    cols = []
    for f, table in enumerate(embeddings):
        fid = ids[:, f]
        bad = (fid < 0) | (fid >= table.shape[0])
        if bad.any():
            raise FeatureIdError(f"feature id {int(fid[bad][0])} out of range for field {f} "
                                 f"(cardinality {table.shape[0]})")
        cols.append(table[fid])
    return np.stack(cols, axis=1)


def make_cfg(mode=SharingMode.CONNECTION_SHARE, cards=(5, 3, 7), dim=3, hidden=(8, 6, 4)):
    width = cross_output_width(len(cards), dim, CrossKind.PAIRWISE_DOT)
    return ModelConfig(cards, dim, (width, *hidden, 1), CrossKind.PAIRWISE_DOT, mode)


class TestCompactTableGrads:
    @pytest.mark.parametrize("F", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_densified_equals_full_bincount(self, F, d, n):
        rng = nn.make_rng(9000 + 1000 * F + 10 * d + n)
        cards = tuple(int(c) for c in rng.choice([1, 2, 3, 40], size=F))
        ids = np.stack([rng.integers(0, c, n) for c in cards], axis=1)
        d_emb = rng.standard_normal((n, F, d)) * 10.0 ** rng.integers(-6, 7, (n, F, d))
        d_emb[rng.random((n, F, d)) < 0.1] = -0.0
        size = sum(cards) * d + 5
        want = bincount_embedding_grads(ids, d_emb, cards, size)
        assert embedding_grads(ids, d_emb, cards, size).tobytes() == want.tobytes()
        offsets = np.cumsum(cards) - np.array(cards)
        rows, values = model._table_grads(ids + offsets, d_emb, sum(cards))
        assert rows.tolist() == sorted(set((ids + offsets).ravel().tolist()))
        assert values.shape == (len(rows), d)
        assert not np.signbit(values[values == 0.0]).any()

    @pytest.mark.parametrize("mode", [SharingMode.CONNECTION_SHARE, SharingMode.LAYER_SHARE])
    def test_backward_flat_equals_full_bincount(self, mode):
        cfg = make_cfg(mode, cards=(1, 4, 9, 2))
        p = model.init_params(cfg, 3)
        rng = nn.make_rng(4)
        ids = np.stack([rng.integers(0, c, 50) for c in cfg.field_cardinalities], axis=1)
        _, cache = model.forward(ids, p, cfg, Task.CVR, want_cache=True)
        dlogit = rng.standard_normal(50)
        grads = model.backward(dlogit, cache, p, cfg)
        weights, _ = model.task_weights(p, cfg, Task.CVR)
        d_out = dlogit[:, None]
        for li in range(len(weights) - 1, -1, -1):
            if li < len(weights) - 1:
                d_out = d_out * (cache.layer_inputs[li + 1] > 0)
            d_out = d_out @ weights[li].T
        d_emb = model._cross_backward(cache.emb, d_out, cfg.cross_kind)
        tables = p.layout.table_size
        want = bincount_embedding_grads(ids, d_emb, cfg.field_cardinalities, tables)
        assert grads.dense.flat.shape == (p.layout.size,)
        assert grads.dense.flat[:tables].tobytes() == want.tobytes()
        assert grads.dense.flat[tables:].tobytes() == grads.mlp.tobytes()
        assert grads.rows.tolist() == np.unique(cache.rows).tolist()


class TestEmbedGather:
    @pytest.mark.parametrize("cards", [(1,), (5, 3, 7), (40, 1, 2, 9, 3)])
    def test_matches_per_field_lookup(self, cards):
        cfg = make_cfg(cards=cards)
        p = model.init_params(cfg, 2)
        rng = nn.make_rng(len(cards))
        ids = np.stack([rng.integers(0, c, 300) for c in cards], axis=1)
        emb, rows = model.embed(ids, p)
        assert emb.tobytes() == per_field_embed(ids, p.embeddings).tobytes()
        assert (p.tables[rows] == emb).all()

    @pytest.mark.parametrize("ids", [
        [[0, 0, 9], [0, -1, 0]],       # field 1 is first in field order
        [[0, 3, 0], [0, -2, 0]],       # field 1's first bad id in sample order
        [[5, 3, 7], [-1, 0, 0]],       # every field bad: field 0, its first bad id
        [[0, 0, 0], [0, 0, 2 ** 40]],  # far past the table
    ])
    def test_error_names_first_bad_field(self, ids):
        cfg = make_cfg()
        p = model.init_params(cfg, 2)
        ids = np.array(ids)
        with pytest.raises(FeatureIdError) as want:
            per_field_embed(ids, p.embeddings)
        with pytest.raises(FeatureIdError) as got:
            model.embed(ids, p)
        assert str(got.value) == str(want.value)


def _compact_step_grads(layout, rng, step, idle_from, scale, d):
    """One step's compact gradient from sampled rows: rows in the first half
    go idle at ``idle_from``, some rows' sums cancel to exactly 0.0, and
    ``scale`` reaches into the denormals."""
    n_rows = layout.table_size // d
    half = n_rows // 2
    n = int(rng.integers(1, 12))
    lo = half if step >= idle_from else 0
    rows = rng.integers(lo, n_rows, (n, 1))
    d_emb = rng.standard_normal((n, 1, d)) * scale * 10.0 ** rng.integers(-3, 4, (n, 1, d))
    if rng.random() < 0.3:   # every row's terms cancel to +0.0
        rows, d_emb = np.concatenate([rows, rows]), np.concatenate([d_emb, -d_emb])
    touched, values = model._table_grads(rows, d_emb, n_rows)
    mlp = rng.standard_normal(layout.size - layout.table_size) * scale
    return model.Grads(layout, mlp, touched, values)


class TestRowSparseAdam:
    """nn.Adam given a compact gradient steps only the rows it names, each
    entry on its own clock: p, m, v and the clocks are byte-equal to the
    per-entry lazy reference, and every other row does not move."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 1e-150, 1e-160, 1e-300, 1e-310]),
           idle_from=st.integers(20, 100))
    def test_matches_lazy_reference(self, seed, scale, idle_from):
        cfg = make_cfg()
        d = cfg.embedding_dim
        rng = nn.make_rng(seed)
        params = model.init_params(cfg, seed % 1000)
        ref_blocks = [b.copy() for b in params.blocks()]
        opt = nn.Adam(params, 0.01)
        ref = PerBlockAdam(ref_blocks, 0.01, tables=len(params.embeddings))
        for step in range(320):
            grads = _compact_step_grads(params.layout, rng, step, idle_from, scale, d)
            opt.step(grads)
            ref.step(list(grads), named=named_rows(grads))
        assert opt.flat.tobytes() == flat_bytes(ref_blocks)
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])
        assert (opt.t_entry == np.concatenate([s.t_entry.ravel() for s in ref.states])).all()
        if scale <= 1e-300:   # the square of g underflows, or m is subnormal
            tiny = np.finfo(np.float64).tiny
            assert ((opt.m != 0) & ((np.abs(opt.m) < tiny) | (opt.v < tiny))).any()

    @pytest.mark.parametrize("mode", [SharingMode.LAYER_SHARE, SharingMode.CONNECTION_SHARE])
    def test_real_steps_match_per_block_reference(self, mode):
        """Real forward/backward steps, ungated, fed to nn.Adam compact and
        to the lazy per-block reference densified, with the named rows."""
        ds = generate(SyntheticSpec(n_users=30, n_items=30, field_cardinalities=(40, 3, 25),
                                    latent_dim=3, n_impressions=3000, seed=6))
        cfg = make_cfg(mode, cards=ds.field_cardinalities)
        params = model.init_params(cfg, 7)
        ref_blocks = [b.copy() for b in params.blocks()]
        opt = nn.Adam(params, 0.01)
        ref = PerBlockAdam(ref_blocks, 0.01, tables=len(params.embeddings))
        steps, idle = 0, 0
        for batch in batches(ds, (Task.CTR, Task.CVR), 16, seed=8, epoch=0):
            preds, cache = model.forward(batch.ids, params, cfg, batch.task, want_cache=True)
            _, dlogit = training._loss_and_dlogit(cache.logits, preds, batch.labels, batch.task)
            grads = model.backward(dlogit, cache, params, cfg)
            opt.step(grads)
            assert "dense" not in grads.__dict__
            ref.step(list(grads), named=named_rows(grads))
            idle += len(params.tables) - len(grads.rows)
            steps += 1
        assert steps >= 150 and idle > 0
        assert params.flat.tobytes() == flat_bytes(ref_blocks)
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])

    def test_gated_table_block_steps_lazily(self):
        """A gate on a table block shuts entries of the named rows too."""
        cfg = make_cfg()
        params = model.init_params(cfg, 3)
        ref_blocks = [b.copy() for b in params.blocks()]
        opt = nn.Adam(params, 0.01)
        ref = PerBlockAdam(ref_blocks, 0.01, tables=len(params.embeddings))
        rng = nn.make_rng(5)
        gates = [None, (rng.random(params.embeddings[1].shape) < 0.5).astype(float)]
        gates += [None] * (len(params.blocks()) - 2)
        gate = nn.Gate(gates, params.layout)
        for step in range(40):
            grads = _compact_step_grads(params.layout, rng, step, 20, 1.0, cfg.embedding_dim)
            opt.step(grads, gate)
            assert "dense" not in grads.__dict__
            ref.step(list(grads), gates, named_rows(grads))
        assert params.flat.tobytes() == flat_bytes(ref_blocks)
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])

    @pytest.mark.parametrize("gated", [False, True])
    def test_idle_rows_frozen(self, gated):
        """A row the gradient does not name keeps p, m, v and its clocks
        byte-equal, after steps that moved all of them; the step does not
        build the dense gradient, so its cost follows the batch's rows."""
        cfg = make_cfg()
        params = model.init_params(cfg, 4)
        gate = (TaskMask.all_ones(params.mlp_weights, Task.CTR).update_gate(params)
                if gated else None)
        opt = nn.Adam(params, 0.01)
        rng = nn.make_rng(6)
        n_rows, d = params.tables.shape
        mlp = params.layout.size - params.layout.table_size
        for _ in range(3):
            opt.step(model.Grads(params.layout, rng.standard_normal(mlp), np.arange(n_rows),
                                 rng.standard_normal((n_rows, d))), gate)
        rows = np.array([0, 2, 5, n_rows - 1])
        idle = np.setdiff1d(np.arange(n_rows), rows)
        before = [a[:params.layout.table_size].reshape(n_rows, d)[idle].copy()
                  for a in (opt.flat, opt.m, opt.v, opt.t_entry)]
        grads = model.Grads(params.layout, rng.standard_normal(mlp), rows,
                            rng.standard_normal((len(rows), d)))
        opt.step(grads, gate)
        assert "dense" not in grads.__dict__
        after = [a[:params.layout.table_size].reshape(n_rows, d)
                 for a in (opt.flat, opt.m, opt.v, opt.t_entry)]
        for old, new in zip(before, after):
            assert new[idle].tobytes() == old.tobytes()
        assert (after[3][rows] == 4).all() and (after[3][idle] == 3).all()

    @pytest.mark.parametrize("mode", [SharingMode.CONNECTION_SHARE, SharingMode.LAYER_SHARE])
    def test_unused_row_ends_at_init(self, mode):
        """A table row that no training sample uses ends ``train_model``
        byte-equal to its ``init_params`` value; the used rows move. Field
        0's id 4 occurs only outside the train split (train samples with it
        get id 0), and id 5 never occurs."""
        ds = generate(SyntheticSpec(n_users=30, n_items=30, field_cardinalities=(6, 5, 7),
                                    latent_dim=3, n_impressions=600, seed=2))
        tasks = {}
        for task, td in ds.tasks.items():
            ids = td.ids.copy()
            ids[(td.split == 0) & (ids[:, 0] == 4), 0] = 0
            tasks[task] = TaskData(ids, td.labels, td.split)
        ds = Dataset(ds.field_cardinalities, tasks)
        assert (ds.task(Task.CTR).ids[:, 0] == 4).any()
        cfg = make_cfg(mode, cards=ds.field_cardinalities)
        tcfg = training.TrainConfig(seed=3, batch_size=32, sharing_mode=mode, n_pruning=1)
        art = training.train_model(ds, cfg, tcfg)
        init = model.init_params(cfg, tcfg.seed)
        trained = art.params[Task.CTR]
        assert trained.embeddings[0][4:].tobytes() == init.embeddings[0][4:].tobytes()
        assert (trained.embeddings[0][:4] != init.embeddings[0][:4]).all()
