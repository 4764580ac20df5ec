"""layer_share as fixed tower masks on the one shared net, against the
shared-trunk + two-tower net it replaced, kept here as a reference; its old
checkpoint layout; and layer_share run dirs through ``score``."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from lotshare import metrics, model, nn, training
from lotshare.data import SyntheticSpec, batches, generate
from lotshare.errors import CheckpointFormatError
from lotshare.masking import TaskMask
from lotshare.model import TASKS, CrossKind, ModelConfig, SharingMode, Task, cross_output_width
from test_cli import BASE_CFG, run


def layer_share_config(cards, emb=4, hidden=(12, 8, 6)):
    width = cross_output_width(len(cards), emb, CrossKind.PAIRWISE_DOT)
    return ModelConfig(cards, emb, (width, *hidden, 1), CrossKind.PAIRWISE_DOT,
                       SharingMode.LAYER_SHARE)


class TwoTowerNet:
    """The layer_share net before it became masks: shared embeddings and
    trunk, and per task a tower of its own, h2 -> h3/2 -> 1, with its own
    weights and biases. Built from slices of a one-net init, so that the
    towers start where the masked net's halves start."""

    def __init__(self, shared: model.ModelParams, cfg: ModelConfig):
        self.cfg = cfg
        self.front_params = shared.copy()
        half = cfg.mlp_dims[-2] // 2
        self.trunk_w = [w.copy() for w in shared.mlp_weights[:-2]]
        self.trunk_b = [b.copy() for b in shared.mlp_biases[:-2]]
        self.tower_w, self.tower_b = {}, {}
        for ti, task in enumerate(TASKS):
            own = slice(ti * half, (ti + 1) * half)
            w_in, w_out = shared.mlp_weights[-2:]
            self.tower_w[task] = [w_in[:, own].copy(), w_out[own].copy()]
            self.tower_b[task] = [shared.mlp_biases[-2][own].copy(),
                                  shared.mlp_biases[-1].copy()]

    def forward(self, ids, task):
        x = model.front(ids, self.front_params, self.cfg)[2]
        return model.mlp_forward(x, self.trunk_w + self.tower_w[task],
                                 self.trunk_b + self.tower_b[task])

    def weight_grads(self, ids, task, dlogit_of):
        """Gradients of the trunk and the task's tower weights."""
        preds, logits, inputs = self.forward(ids, task)
        weights = self.trunk_w + self.tower_w[task]
        d_out = dlogit_of(logits, preds)[:, None]
        grads = [None] * len(weights)
        for li in range(len(weights) - 1, -1, -1):
            if li < len(weights) - 1:
                d_out = d_out * (inputs[li + 1] > 0)
            grads[li], _, d_out = nn.affine_backward(inputs[li], weights[li], d_out)
        return grads


class TextbookAdam:
    """Per-block Adam with one step count per block."""

    def __init__(self, blocks, lr):
        self.blocks, self.lr = blocks, lr
        self.m = [np.zeros_like(b) for b in blocks]
        self.v = [np.zeros_like(b) for b in blocks]
        self.t = 0

    def step(self, grads, b1=0.9, b2=0.999, eps=1e-8):
        self.t += 1
        for p, g, m, v in zip(self.blocks, grads, self.m, self.v, strict=True):
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            p -= self.lr * (m / (1 - b1 ** self.t)) / (np.sqrt(v / (1 - b2 ** self.t)) + eps)


def test_tower_masks_match_two_tower_reference():
    """With embeddings and biases held fixed on both sides, as in criterion
    5, the one net under its fixed tower masks follows the two-tower net
    step for step: the trunk is trained by both tasks, each tower by its
    own task only."""
    ds = generate(SyntheticSpec(n_users=40, n_items=40, field_cardinalities=(8,) * 4,
                                latent_dim=4, n_impressions=3000, seed=2))
    cfg = layer_share_config(ds.field_cardinalities)
    shared = model.init_params(cfg, 3)
    ref = TwoTowerNet(shared, cfg)
    towers = {t: TaskMask(layers, t) for t, layers in model.tower_masks(cfg).items()}
    tcfg = training.TrainConfig(sharing_mode=SharingMode.LAYER_SHARE)
    lr = 1e-3
    opt = nn.Adam(shared, lr)
    trunk_opt = TextbookAdam(ref.trunk_w, lr)
    tower_opts = {t: TextbookAdam(ref.tower_w[t], lr) for t in TASKS}
    fixed = {t: nn.Gate([np.zeros_like(e) for e in shared.embeddings] + towers[t].layers
                        + [np.zeros_like(b) for b in shared.mlp_biases], shared.layout)
             for t in TASKS}

    max_diff, steps, seen = 0.0, 0, set()
    for epoch in range(10):
        for batch in batches(ds, TASKS, 64, seed=4, epoch=epoch):
            if steps >= 120:
                break
            task, weight = batch.task, tcfg.omega(batch.task)

            def dlogit_of(logits, preds):
                return weight * training._loss_and_dlogit(logits, preds, batch.labels, task)[1]

            preds, cache = model.forward(batch.ids, shared, cfg, task, mask=towers[task],
                                         want_cache=True)
            grads = model.backward(dlogit_of(cache.logits, preds), cache, shared, cfg,
                                   mask=towers[task])
            opt.step(grads, fixed[task])

            ref_grads = ref.weight_grads(batch.ids, task, dlogit_of)
            n_trunk = len(ref.trunk_w)
            trunk_opt.step(ref_grads[:n_trunk])
            tower_opts[task].step(ref_grads[n_trunk:])

            for t in TASKS:   # mask=None resolves to the tower masks
                a = model.forward(batch.ids, shared, cfg, t)
                b = ref.forward(batch.ids, t)[0]
                max_diff = max(max_diff, float(np.max(np.abs(a - b))))
            steps += 1
            seen.add(task)
    assert steps >= 100 and seen == set(TASKS)
    assert max_diff <= 1e-10
    init = model.init_params(cfg, 3)
    assert shared.flat[:shared.layout.table_size].tobytes() == \
        init.flat[:init.layout.table_size].tobytes()
    assert all((b == b0).all() for b, b0 in zip(shared.mlp_biases, init.mlp_biases))


def write_two_tower_checkpoint(path, cfg):
    """A checkpoint of ``cfg`` in the layout layer_share had before its
    towers became masks: embeddings, the trunk's weights and biases, then
    per task a tower mlp_dims[-3] -> mlp_dims[-2] -> 1 of its own."""
    dims, cards = cfg.mlp_dims, cfg.field_cardinalities
    trunk, tower = dims[:-2], dims[-3:]
    shapes = [*((c, cfg.embedding_dim) for c in cards), *zip(trunk, trunk[1:]), *trunk[1:],
              *([*zip(tower, tower[1:]), *tower[1:]] * 2)]
    payload = nn.make_rng(1).standard_normal(sum(int(np.prod(s)) for s in shapes))
    header = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
    path.write_bytes(model.CKPT_MAGIC + struct.pack("<II", model.CKPT_VERSION, len(header))
                     + header + payload.astype("<f8").tobytes())
    return payload.size


def test_old_layout_checkpoint_rejected(tmp_path):
    cfg = layer_share_config((5, 3, 7))
    path = tmp_path / "old.ckpt"
    h2, h3 = cfg.mlp_dims[-3:-1]
    old_size = write_two_tower_checkpoint(path, cfg)
    assert old_size == model.ParamLayout.of(cfg).size + h2 * h3 + 2 * h3 + 1
    with pytest.raises(CheckpointFormatError, match="trailing bytes in checkpoint"):
        model.load_checkpoint(path)


@pytest.fixture
def layer_share_run(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(BASE_CFG)
    out = tmp_path / "ls"
    assert run(capsys, "train", "--config", str(cfg_file), "--mode", "layer_share",
               "--out", str(out))[0] == 0
    return out


def candidates(tmp_path, n=200):
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 8, (n, 4))
    lengths = np.round(rng.uniform(1.0, 600.0, n), 1)
    p = tmp_path / "cands.tsv"
    p.write_text("".join(f"{','.join(map(str, row))}\t{l!r}\n"
                         for row, l in zip(ids.tolist(), lengths.tolist())))
    return p, ids, lengths


class TestScoreLayerShare:
    def test_towers_from_one_checkpoint(self, layer_share_run, tmp_path, capsys, monkeypatch):
        """score on a layer_share run dir: model.ckpt for both tasks and no
        masks gives each task its own tower, byte-equal to predict."""
        out = layer_share_run
        assert not list(out.glob("*.mask")) and not (out / "masks").exists()
        p, ids, _ = candidates(tmp_path)
        seen = []
        rank_scores = metrics.rank_scores
        monkeypatch.setattr(metrics, "rank_scores",
                            lambda pctr, pcvr, *a: seen.append((pctr, pcvr))
                            or rank_scores(pctr, pcvr, *a))
        ckpt = str(out / "model.ckpt")
        rc, stdout, _ = run(capsys, "score", "--ctr-checkpoint", ckpt,
                            "--cvr-checkpoint", ckpt, "-k", "20", str(p))
        assert rc == 0 and len(stdout.splitlines()) == 20
        cfg, params = model.load_checkpoint(ckpt)
        pred = {t: training.predict(params, cfg, t, ids) for t in TASKS}
        (pctr, pcvr), = seen
        assert pctr.tobytes() == pred[Task.CTR].tobytes()
        assert pcvr.tobytes() == pred[Task.CVR].tobytes()
        assert not np.array_equal(pred[Task.CTR], pred[Task.CVR])

    def test_mask_not_taken(self, layer_share_run, tmp_path, capsys):
        out = layer_share_run
        cs = tmp_path / "cs"
        assert run(capsys, "train", "--config", str(tmp_path / "exp.cfg"),
                   "--out", str(cs))[0] == 0
        p, _, _ = candidates(tmp_path, 5)
        ckpt = str(out / "model.ckpt")
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", ckpt, "--cvr-checkpoint",
                              ckpt, "--ctr-mask", str(cs / "mask_ctr.mask"), str(p))
        assert rc == 2 and stdout == ""
        assert err == (f"config error: --ctr-mask is not taken: {ckpt} is a "
                       f"layer_share checkpoint\n")

    def test_old_layout_checkpoint_exit_3(self, layer_share_run, tmp_path, capsys):
        cfg, _ = model.load_checkpoint(layer_share_run / "model.ckpt")
        old = tmp_path / "old.ckpt"
        write_two_tower_checkpoint(old, cfg)
        p, _, _ = candidates(tmp_path, 5)
        rc, stdout, err = run(capsys, "score", "--ctr-checkpoint", str(old),
                              "--cvr-checkpoint", str(old), str(p))
        assert rc == 3 and stdout == ""
        assert err == f"data error: {old}: trailing bytes in checkpoint\n"


def test_odd_last_width_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(BASE_CFG)
    rc, _, err = run(capsys, "train", "--config", str(cfg_file), "--mode", "layer_share",
                     "--set", "model.hidden_dims=8,5", "--out", str(tmp_path / "run"))
    assert rc == 2
    assert err == ("config error: layer_share splits the last hidden width between the "
                   "two task towers, so it must be even: got 5\n")
    assert run(capsys, "train", "--config", str(cfg_file), "--set", "model.hidden_dims=8,5",
               "--out", str(tmp_path / "cs"))[0] == 0
