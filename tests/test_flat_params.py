"""The flat parameter vector and the fused Adam update against per-block
references: a per-block Adam with lazy embedding tables, and the per-block
checkpoint writer. Every comparison is on bytes."""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from lotshare import model, nn, training
from lotshare.data import SyntheticSpec, batches, generate
from lotshare.errors import ShapeError
from lotshare.masking import TaskMask
from lotshare.model import CrossKind, ModelConfig, SharingMode, Task, cross_output_width


@dataclass
class AdamState:
    """Per-parameter-block Adam moments, step counter and per-entry clocks:
    a frozen entry keeps its bias-correction clock stopped too."""

    m: np.ndarray
    v: np.ndarray
    t_entry: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param),
                   t_entry=np.zeros(param.shape, dtype=np.int64))


def adam_step(params, grads, state, lr, update_mask=None):
    """One in-place per-block Adam update: entries where ``update_mask`` is
    0 are frozen completely, and every other entry steps on its own clock;
    None is an all-ones mask. Every bias correction ``1 - b**t`` is taken by
    numpy's array pow."""
    assert params.shape == grads.shape == state.m.shape == state.v.shape
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    if update_mask is None:
        update_mask = np.ones(params.shape)
    assert update_mask.shape == params.shape
    active = update_mask != 0
    state.t_entry[active] += 1
    t = state.t_entry[active]
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    g = grads[active]
    m = b1 * state.m[active] + (1.0 - b1) * g
    v = b2 * state.v[active] + (1.0 - b2) * np.square(g)
    state.m[active] = m
    state.v[active] = v
    params[active] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class PerBlockAdam:
    """One AdamState per block, one adam_step per block and step.

    The first ``tables`` blocks are embedding tables, which step lazily,
    entry by entry: an entry steps on its own clock where its gate is open
    and its row is named by ``named`` (per table block, one bool per row;
    None names every row), and is frozen everywhere else."""

    def __init__(self, blocks, lr, tables=0):
        self.blocks, self.lr, self.tables = blocks, lr, tables
        self.states = [AdamState.for_param(b) for b in blocks]

    def step(self, grads, gates=None, named=None):
        for i, (p, g, s) in enumerate(zip(self.blocks, grads, self.states, strict=True)):
            gate = None if gates is None else gates[i]
            if i < self.tables:
                gate = np.ones(p.shape) if gate is None else np.asarray(gate, dtype=float)
                if named is not None:
                    gate = gate * named[i][:, None]
            adam_step(p, g, s, self.lr, gate)


def dense_grads(layout, flat):
    """The compact ``model.Grads`` of the dense gradient ``flat``: it names
    every table row, so every row steps."""
    tables = flat[:layout.table_size].reshape(-1, layout.embeddings[0][1])
    return model.Grads(layout, flat[layout.table_size:], np.arange(len(tables)), tables)


def named_rows(grads):
    """Per table block, the rows a compact ``model.Grads`` names."""
    layout = grads.layout
    hit = np.zeros(int(layout.cardinalities.sum()), dtype=bool)
    hit[grads.rows] = True
    return np.split(hit, layout.row_offsets[1:])


def reference_save_checkpoint(path, params, cfg):
    """The per-block checkpoint writer."""
    header = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(model.CKPT_MAGIC)
        fh.write(struct.pack("<II", model.CKPT_VERSION, len(header)))
        fh.write(header)
        for block in params.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def reference_init_blocks(cfg, seed):
    """The per-block init: Xavier draws for embeddings, then MLP weights;
    zero biases; in blocks() order. The same in every sharing mode."""
    rng = nn.make_rng(seed)
    emb = [nn.xavier_init(c, cfg.embedding_dim, rng) for c in cfg.field_cardinalities]
    dims = cfg.mlp_dims
    weights = [nn.xavier_init(a, b, rng) for a, b in zip(dims, dims[1:])]
    return emb + weights + [np.zeros(b) for b in dims[1:]]


def flat_bytes(blocks) -> bytes:
    return np.concatenate([b.ravel() for b in blocks]).tobytes()


def assert_views(params):
    """Every block of ``params`` is a view of its contiguous 1-D float64
    vector ``flat``, back to back from its start, covering it."""
    flat = params.flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    offset = 0
    for block in params.blocks():
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert block.__array_interface__["data"][0] == base + 8 * offset
        offset += block.size
    assert offset == flat.size


def make_cfg(mode=SharingMode.CONNECTION_SHARE, cards=(5, 3, 7), emb=3, hidden=(12, 6)):
    width = cross_output_width(len(cards), emb, CrossKind.PAIRWISE_DOT)
    return ModelConfig(cards, emb, (width, *hidden, 1), CrossKind.PAIRWISE_DOT, mode)


def random_grads(params, rng):
    """Wide exponents, exact zeros and negative zeros."""
    n = params.layout.size
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
    g[rng.random(n) < 0.05] = 0.0
    g[rng.random(n) < 0.05] = -0.0
    return dense_grads(params.layout, g)


def random_mask(params, task, rng, density):
    return TaskMask([(rng.random(w.shape) < density).astype(float)
                     for w in params.mlp_weights], task)


def weight_gates(params, mask):
    """Per-block gates of a task mask: MLP weights gated, the rest not."""
    n_after = len(params.blocks()) - len(params.embeddings) - len(params.mlp_weights)
    return [None] * len(params.embeddings) + mask.layers + [None] * n_after


def zero_emb_bias_gates(params, mask):
    """Criterion 5's shape: embeddings and biases gated shut."""
    return ([np.zeros_like(e) for e in params.embeddings] + mask.layers
            + [np.zeros_like(b) for b in params.mlp_biases])


def _schedule(case, params, rng):
    """(flat gate, per-block reference gates) for each of 60 steps."""
    ctr = random_mask(params, Task.CTR, rng, 0.6)
    cvr = random_mask(params, Task.CVR, rng, 0.5)
    ones = TaskMask.all_ones(params.mlp_weights, Task.CTR)
    out = []
    for step in range(60):
        if case == "ungated":
            out.append((None, None))
        elif case == "pruned":
            out.append((ctr.update_gate(params), weight_gates(params, ctr)))
        elif case == "all_ones":
            out.append((ones.update_gate(params), weight_gates(params, ones)))
        elif case == "zero_emb_bias":
            gates = zero_emb_bias_gates(params, ctr)
            out.append((nn.Gate(gates, params.layout), gates))
        elif case == "alternating":
            m = ctr if step % 3 else cvr
            out.append((m.update_gate(params), weight_gates(params, m)))
        elif case == "mixed":
            # ungated, then gated, then ungated again: the gated entries'
            # clocks fall behind the step count and stay behind
            if step < 10 or step >= 45:
                out.append((None, None))
            else:
                out.append((ctr.update_gate(params), weight_gates(params, ctr)))
        elif case == "random_blocks":
            gates = [(rng.random(b.shape) < 0.7).astype(float) if rng.random() < 0.6 else None
                     for b in params.blocks()]
            out.append((nn.Gate(gates, params.layout), gates))
    return out


CASES = ["ungated", "pruned", "all_ones", "zero_emb_bias", "alternating", "mixed",
         "random_blocks"]


class TestAdamBitIdentity:
    """nn.Adam over the flat vector reproduces the per-block Adam with lazy
    tables bit for bit on params, m and v, and on every entry's clock: every
    entry that steps does so on its own clock."""

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_block_reference(self, case, rows):
        """``rows`` None steps gradients that name every table row; 7 steps
        ones naming 7 random rows of the 15, so the other rows sit the step
        out."""
        rng = nn.make_rng(100 + CASES.index(case))
        cfg = make_cfg()
        params = model.init_params(cfg, 3)
        ref_blocks = [b.copy() for b in params.blocks()]
        opt = nn.Adam(params, 0.01)
        ref = PerBlockAdam(ref_blocks, 0.01, tables=len(params.embeddings))
        for flat_gate, ref_gates in _schedule(case, params, rng):
            grads = random_grads(params, rng)
            if rows is not None:
                named = np.sort(rng.choice(len(params.tables), rows, replace=False))
                grads = model.Grads(params.layout, grads.mlp, named,
                                    grads.dense.tables[named])
            opt.step(grads, flat_gate)
            ref.step(list(grads), ref_gates, None if rows is None else named_rows(grads))
        assert params.flat.tobytes() == flat_bytes(ref_blocks)
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])
        assert np.array_equal(opt.t_entry, np.concatenate([s.t_entry.ravel()
                                                           for s in ref.states]))
        assert opt.t == 60 and all(s.t == 60 for s in ref.states)

    def test_bias_tables_regrow(self):
        """Past 1024 steps the bias-correction tables regrow; clocks that
        fell behind and clocks that kept up both still match."""
        rng = nn.make_rng(11)
        layout = model.ParamLayout(embeddings=((1, 1),), mlp_weights=((6,),), mlp_biases=())
        params = model.ModelParams(layout, np.concatenate([[0.0], rng.standard_normal(6)]))
        flat = params.mlp_weights[0]
        ref_flat = flat.copy()
        opt, state = nn.Adam(params, 0.01), AdamState.for_param(ref_flat)
        for _ in range(1100):
            g = rng.standard_normal(6)
            gate = (rng.random(6) < 0.8).astype(float)
            gate[0] = 1.0
            opt.step(dense_grads(layout, np.concatenate([[0.0], g])),
                     nn.Gate([None, gate], layout))
            adam_step(ref_flat, g, state, 0.01, gate)
        assert opt.t_entry[1] == 1100 and opt.t_entry.min() < 1024
        assert flat.tobytes() == ref_flat.tobytes()
        assert opt.m[1:].tobytes() == state.m.tobytes()
        assert opt.v[1:].tobytes() == state.v.tobytes()

    @pytest.mark.parametrize("gated", [False, True])
    def test_layer_share_heads(self, gated):
        """layer_share's task heads are fixed tower masks on the shared net.
        Gated, the tasks alternate: the trunk opens for both, each tower for
        its own task only."""
        rng = nn.make_rng(7)
        cfg = make_cfg(SharingMode.LAYER_SHARE, hidden=(10, 6, 4))
        params = model.init_params(cfg, 4)
        towers = {t: TaskMask(layers, t) for t, layers in model.tower_masks(cfg).items()}
        ref_blocks = [b.copy() for b in params.blocks()]
        opt, ref = nn.Adam(params, 0.01), PerBlockAdam(ref_blocks, 0.01)
        for step in range(60):
            grads = random_grads(params, rng)
            if gated:
                mask = towers[Task.CTR if step % 3 else Task.CVR]
                opt.step(grads, mask.update_gate(params))
                ref.step(list(grads), weight_gates(params, mask))
            else:
                opt.step(grads, None)
                ref.step(list(grads), None)
        assert params.flat.tobytes() == flat_bytes(ref_blocks)
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])

    def test_joint_training_steps(self):
        """Real masked forward/backward steps alternating the CTR and CVR
        masks, with the gradients fed to both optimizers: compact to
        nn.Adam, densified with the named rows to the lazy reference."""
        ds = generate(SyntheticSpec(n_users=30, n_items=30, field_cardinalities=(6,) * 4,
                                    latent_dim=4, n_impressions=2000, seed=5))
        cfg = model.ModelConfig(ds.field_cardinalities, 4,
                                (cross_output_width(4, 4, CrossKind.PAIRWISE_DOT), 16, 8, 1),
                                CrossKind.PAIRWISE_DOT, SharingMode.CONNECTION_SHARE)
        params = model.init_params(cfg, 6)
        rng = nn.make_rng(8)
        masks = {t: random_mask(params, t, rng, 0.6) for t in (Task.CTR, Task.CVR)}
        ref_blocks = [b.copy() for b in params.blocks()]
        opt = nn.Adam(params, 0.01)
        ref = PerBlockAdam(ref_blocks, 0.01, tables=len(params.embeddings))
        steps = 0
        for batch in batches(ds, (Task.CTR, Task.CVR), 32, seed=9, epoch=0):
            mask = masks[batch.task]
            preds, cache = model.forward(batch.ids, params, cfg, batch.task,
                                         mask=mask, want_cache=True)
            _, dlogit = training._loss_and_dlogit(cache.logits, preds, batch.labels,
                                                  batch.task)
            grads = model.backward(dlogit, cache, params, cfg, mask=mask)
            opt.step(grads, mask.update_gate(params))
            ref.step(list(grads), weight_gates(params, mask), named_rows(grads))
            assert params.flat.tobytes() == flat_bytes(ref_blocks)
            steps += 1
        assert steps >= 50
        assert opt.m.tobytes() == flat_bytes([s.m for s in ref.states])
        assert opt.v.tobytes() == flat_bytes([s.v for s in ref.states])


class TestEntryClocks:
    """Real forward/backward steps through nn.Adam: each entry's clock
    counts the steps it took. An ungated entry steps on every step, so its
    clock reads ``t`` and its bias correction is the step count's."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_clocks_count_steps_taken(self, masked):
        ds = generate(SyntheticSpec(n_users=30, n_items=30, field_cardinalities=(9, 5, 40, 7),
                                    latent_dim=4, n_impressions=2000, seed=3))
        cfg = model.ModelConfig(ds.field_cardinalities, 4,
                                (cross_output_width(4, 4, CrossKind.PAIRWISE_DOT), 12, 6, 1),
                                CrossKind.PAIRWISE_DOT, SharingMode.CONNECTION_SHARE)
        params = model.init_params(cfg, 2)
        rng = nn.make_rng(4)
        masks = {t: random_mask(params, t, rng, 0.6) for t in (Task.CTR, Task.CVR)}
        opt = nn.Adam(params, 0.01)
        named = np.zeros(len(params.tables), dtype=np.int64)
        opened = [np.zeros(w.shape, dtype=np.int64) for w in params.mlp_weights]
        tasks = []
        for batch in batches(ds, (Task.CTR, Task.CVR), 32, seed=5, epoch=0):
            mask = masks[batch.task] if masked else None
            preds, cache = model.forward(batch.ids, params, cfg, batch.task,
                                         mask=mask, want_cache=True)
            _, dlogit = training._loss_and_dlogit(cache.logits, preds, batch.labels,
                                                  batch.task)
            grads = model.backward(dlogit, cache, params, cfg, mask=mask)
            opt.step(grads, None if mask is None else mask.update_gate(params))
            named[grads.rows] += 1
            for count, layer in zip(opened, masks[batch.task].layers):
                count += True if mask is None else layer != 0
            tasks.append(batch.task)
        assert opt.t == len(tasks) >= 50 and tasks.count(Task.CTR) > tasks.count(Task.CVR) > 0
        tables = params.layout.table_size
        assert (opt.t_entry[:tables].reshape(named.size, -1) == named[:, None]).all()
        assert len(np.unique(named)) > 2   # rows sat out different steps
        clocks = [opt.t_entry[start:stop]
                  for start, stop, _ in params.layout.spans[len(params.embeddings):]]
        for clock, count in zip(clocks, opened):
            assert (clock == count.ravel()).all()
        for clock in clocks[len(opened):]:   # biases are never gated
            assert (clock == opt.t).all()
        if masked:
            counts = np.concatenate([c.ravel() for c in opened])
            assert counts.min() == 0 and len(np.unique(counts)) == 4
        else:
            assert (opt.t_entry[tables:] == opt.t).all()


class TestFlatLayout:
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_init_matches_per_block_init(self, mode):
        cfg = make_cfg(mode, hidden=(10, 6, 4))
        assert model.init_params(cfg, 5).flat.tobytes() == flat_bytes(
            reference_init_blocks(cfg, 5))

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_blocks_are_views_in_order(self, mode):
        params = model.init_params(make_cfg(mode, hidden=(10, 6, 4)), 1)
        assert_views(params)
        assert params.flat.size == sum(b.size for b in params.blocks())
        assert [b.shape for b in params.blocks()] == [s for _, _, s in params.layout.spans]

    def test_copy_and_rewind(self):
        params = model.init_params(make_cfg(), 2)
        params.take_snapshot()
        snap = params.flat.copy()
        params.mlp_weights[0][...] += 1.0
        params.rewind()
        assert params.flat.tobytes() == snap.tobytes()
        assert_views(params.init_snapshot)
        assert not np.shares_memory(params.flat, params.init_snapshot.flat)

    def test_blocks_cannot_be_rebound(self):
        params = model.init_params(make_cfg(), 2)
        for name in ("layout", "flat", "embeddings", "mlp_weights", "mlp_biases"):
            with pytest.raises(AttributeError):
                setattr(params, name, getattr(params, name))
        for group in (params.embeddings, params.mlp_weights, params.mlp_biases):
            with pytest.raises(TypeError):
                group[0] = group[0] * 1.0
        assert_views(params)

    @pytest.mark.parametrize("flat", [
        np.zeros(10), np.zeros(12, dtype=np.float32), np.zeros((3, 4)),
        np.zeros(24)[::2], np.zeros(12).astype(">f8")], ids=[
        "short", "float32", "2-d", "strided", "big-endian"])
    def test_constructor_rejects_bad_flat(self, flat):
        layout = model.ParamLayout(embeddings=((2, 3),), mlp_weights=((3, 2),),
                                   mlp_biases=())
        with pytest.raises(ShapeError, match="for a layout of 12 entries"):
            model.ModelParams(layout, flat)
        assert_views(model.ModelParams(layout, np.zeros(12)))


class TestCheckpointBytes:
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_matches_per_block_writer_and_round_trips(self, mode, tmp_path):
        rng = nn.make_rng(11)
        cfg = make_cfg(mode, hidden=(10, 6, 4))
        params = model.init_params(cfg, 12)
        opt = nn.Adam(params, 0.05)
        for _ in range(5):
            opt.step(random_grads(params, rng))
        params.mlp_biases[0][0] = -0.0
        ours, theirs = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(ours, params, cfg)
        reference_save_checkpoint(theirs, params, cfg)
        assert ours.read_bytes() == theirs.read_bytes()
        cfg2, loaded = model.load_checkpoint(ours)
        assert cfg2 == cfg
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert flat_bytes(loaded.blocks()) == flat_bytes(params.blocks())
        assert_views(loaded)
        assert loaded.flat.flags.writeable
        model.save_checkpoint(tmp_path / "c.ckpt", loaded, cfg2)
        assert (tmp_path / "c.ckpt").read_bytes() == ours.read_bytes()
