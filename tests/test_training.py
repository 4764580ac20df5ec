import numpy as np
import pytest

from lotshare import model, nn, training
from lotshare.data import Batch, Dataset, SyntheticSpec, TaskData, batches, generate
from lotshare.errors import ConfigError, StateError, TrainingDivergedError
from lotshare.masking import TaskMask
from lotshare.model import (TASKS, CrossKind, ModelConfig, SharingMode, Task,
                            cross_output_width)
from lotshare.training import (PREDICT_CHUNK, TrainConfig, evaluate_artifacts,
                               generate_masks, joint_train, predict, predict_tasks,
                               train_baseline, train_model, warmup)


def make_config(mode=SharingMode.CONNECTION_SHARE, hidden=(8, 6)):
    cards = (8,) * 4
    dims = (cross_output_width(4, 3, CrossKind.PAIRWISE_DOT), *hidden, 1)
    return ModelConfig(cards, 3, dims, CrossKind.PAIRWISE_DOT, mode)


def make_dataset(n=600, seed=0, rho=0.8):
    return generate(SyntheticSpec(n_users=40, n_items=40,
                                  field_cardinalities=(8,) * 4, latent_dim=4,
                                  n_impressions=n, task_correlation=rho,
                                  seed=seed))


class TestLosses:
    """The closed-form losses of ``training._loss_and_dlogit``, the loss that
    every training step takes."""

    def _zero_net(self, cfg):
        # all-zero final layer gives preds == 0.5 exactly
        p = model.init_params(cfg, 0)
        layers = [np.ones_like(w) for w in p.mlp_weights]
        layers[-1][:] = 0.0
        return p, TaskMask(layers, Task.CTR)

    def _loss(self, batch, p, cfg, mask):
        preds, cache = model.forward(batch.ids, p, cfg, batch.task, mask=mask, want_cache=True)
        return training._loss_and_dlogit(cache.logits, preds, batch.labels, batch.task)[0]

    def test_ctr_half_preds_is_ln2(self):
        cfg = make_config()
        p, mask = self._zero_net(cfg)
        batch = Batch(Task.CTR, np.zeros((4, 4), dtype=np.int64),
                      np.array([0.0, 1.0, 0.0, 1.0]))
        assert self._loss(batch, p, cfg, mask) == pytest.approx(np.log(2), rel=1e-12)

    def test_cvr_half_preds_closed_form(self):
        cfg = make_config()
        p, mask = self._zero_net(cfg)
        batch = Batch(Task.CVR, np.zeros((2, 4), dtype=np.int64),
                      np.array([0.1, 0.9]))
        # mean((0.5-0.1)^2, (0.5-0.9)^2) = 0.16
        assert self._loss(batch, p, cfg, mask) == pytest.approx(0.16, rel=1e-12)

    def test_joint_loss_scales_by_omega(self):
        cfg = make_config()
        p, mask = self._zero_net(cfg)
        tcfg = TrainConfig(sharing_mode=cfg.sharing_mode)

        def step_loss(batch):  # a joint step's loss, taken before it updates a copy
            q = p.copy()
            return training._train_step(q, cfg, nn.Adam(q, 1e-3), batch, mask,
                                        tcfg.omega(batch.task))

        batch = Batch(Task.CVR, np.zeros((2, 4), dtype=np.int64),
                      np.array([0.1, 0.9]))
        # 0.3 * 0.16 = 0.048
        assert step_loss(batch) == pytest.approx(0.048, rel=1e-12)
        ctr = Batch(Task.CTR, np.zeros((2, 4), dtype=np.int64), np.array([0.0, 1.0]))
        assert step_loss(ctr) == pytest.approx(0.7 * np.log(2), rel=1e-12)


class TestWarmup:
    def test_snapshot_is_post_warmup_weights(self):
        cfg = make_config()
        tcfg = TrainConfig(seed=1, warmup_epochs=1, batch_size=64)
        ds = make_dataset(400)
        p = model.init_params(cfg, tcfg.seed)
        warmup(p, ds, cfg, tcfg)
        for live, snap in zip(p.blocks(), p.init_snapshot.blocks()):
            assert (live == snap).all()

    def test_zero_epochs_snapshot_equals_init(self):
        cfg = make_config()
        tcfg = TrainConfig(seed=1, warmup_epochs=0)
        ds = make_dataset(200)
        p = model.init_params(cfg, tcfg.seed)
        fresh = [b.copy() for b in p.blocks()]
        warmup(p, ds, cfg, tcfg)
        for snap, ref in zip(p.init_snapshot.blocks(), fresh):
            assert (snap == ref).all()

    def test_warmup_changes_weights(self):
        cfg = make_config()
        tcfg = TrainConfig(seed=1, batch_size=64)
        ds = make_dataset(400)
        p = model.init_params(cfg, tcfg.seed)
        before = [b.copy() for b in p.blocks()]
        warmup(p, ds, cfg, tcfg)
        assert any((a != b).any() for a, b in zip(p.blocks(), before))


class TestGenerateMasks:
    def _run(self, mode=SharingMode.CONNECTION_SHARE, n_pruning=2):
        cfg = make_config(mode=mode)
        tcfg = TrainConfig(seed=2, batch_size=64, n_pruning=n_pruning,
                           sharing_mode=mode)
        ds = make_dataset(500, seed=2)
        p = model.init_params(cfg, tcfg.seed)
        warmup(p, ds, cfg, tcfg)
        history = []
        masks, best_i = generate_masks(p, ds, cfg, tcfg, history)
        return p, masks, best_i, history, tcfg

    def test_requires_snapshot(self):
        cfg = make_config()
        tcfg = TrainConfig()
        p = model.init_params(cfg, 0)
        with pytest.raises(StateError):
            generate_masks(p, make_dataset(100), cfg, tcfg)

    def test_candidate_counts_and_rounds(self):
        _, masks, best_i, _, tcfg = self._run()
        for task in (Task.CTR, Task.CVR):
            cands = masks[task]
            assert len(cands) == tcfg.n_pruning + 1
            assert [m.pruning_round for m in cands] == [0, 1, 2]
            assert cands[0].survivor_fraction() == 1.0
            fracs = [m.survivor_fraction() for m in cands]
            assert fracs == sorted(fracs, reverse=True)
            assert 0 <= best_i[task] <= tcfg.n_pruning

    def test_live_weights_rewound_after(self):
        p, _, _, _, _ = self._run()
        for live, snap in zip(p.blocks(), p.init_snapshot.blocks()):
            assert (live == snap).all()

    def test_history_rows(self):
        _, _, _, history, tcfg = self._run()
        rows = [h for h in history if h["stage"] == "mask_gen"]
        assert len(rows) == 2 * (tcfg.n_pruning + 1)
        for task in ("ctr", "cvr"):
            trows = [h for h in rows if h["task"] == task]
            assert [h["round"] for h in trows] == [0, 1, 2]

    def test_best_i_matches_argext_of_history(self):
        _, _, best_i, history, _ = self._run()
        rows = [h for h in history if h["stage"] == "mask_gen"]
        ctr = [h["val"] for h in rows if h["task"] == "ctr"]
        cvr = [h["val"] for h in rows if h["task"] == "cvr"]
        assert best_i[Task.CTR] == int(np.argmax(ctr))
        assert best_i[Task.CVR] == int(np.argmin(cvr))

    def test_neuron_variant_runs(self):
        _, masks, _, _, _ = self._run(mode=SharingMode.NEURON_SHARE)
        m = masks[Task.CTR][-1]
        # structural: dead hidden columns imply dead next-layer rows
        for li in range(len(m.layers) - 1):
            col_dead = (m.layers[li] == 0).all(axis=0)
            row_dead = (m.layers[li + 1] == 0).all(axis=1)
            assert (col_dead == row_dead).all()


class TestDivergence:
    def test_mask_search_names_round(self):
        cfg = make_config()
        ds = make_dataset(500, seed=2)
        p = model.init_params(cfg, 2)
        warmup(p, ds, cfg, TrainConfig(seed=2, batch_size=64))
        with pytest.raises(TrainingDivergedError,
                           match=r"^training diverged in mask search round 0, task ctr, "
                                 r"epoch 0, step 1: loss \S+ at weight 1 is not finite"):
            generate_masks(p, ds, cfg, TrainConfig(seed=2, batch_size=64, learning_rate=1e6))

    def test_bound_is_per_unit_weight(self, monkeypatch):
        """A step fails when its loss passes ``MAX_STEP_LOSS`` times its
        weight, though finite; a config error, so the CLI exits 2."""
        assert issubclass(TrainingDivergedError, ConfigError)
        cfg = make_config()
        ds = make_dataset(300, seed=4)
        tcfg = TrainConfig(seed=4, batch_size=64, omega_ctr=10.0)
        monkeypatch.setattr(training, "MAX_STEP_LOSS", 2.0)
        warmup(model.init_params(cfg, 4), ds, cfg, tcfg)   # CTR losses near 8 at weight 10
        monkeypatch.setattr(training, "MAX_STEP_LOSS", 0.5)
        with pytest.raises(TrainingDivergedError, match=r"^training diverged in warmup, "
                                                        r"task ctr, epoch 0, step 0: loss "
                                                        r"[0-9.]+ at weight 10 is not finite"):
            warmup(model.init_params(cfg, 4), ds, cfg, tcfg)


class TestJointTrain:
    def _setup(self, seed=3):
        cfg = make_config()
        tcfg = TrainConfig(seed=seed, batch_size=64, n_pruning=2)
        ds = make_dataset(500, seed=seed)
        p = model.init_params(cfg, tcfg.seed)
        warmup(p, ds, cfg, tcfg)
        masks, best_i = generate_masks(p, ds, cfg, tcfg)
        best = {t: masks[t][best_i[t]] for t in (Task.CTR, Task.CVR)}
        return cfg, tcfg, ds, p, best

    def test_masked_weights_stay_at_snapshot(self):
        cfg, tcfg, ds, p, best = self._setup()
        joint_train(p, best, ds, cfg, tcfg)
        dead_both = [(best[Task.CTR].layers[i] == 0) & (best[Task.CVR].layers[i] == 0)
                     for i in range(len(p.mlp_weights))]
        assert any(d.any() for d in dead_both), "want some dead-in-both entries"
        snap = p.init_snapshot.mlp_weights
        for i, dead in enumerate(dead_both):
            assert (p.mlp_weights[i][dead] == snap[i][dead]).all()

    def test_omega_zero_freezes_exclusive_connections(self):
        cfg, tcfg0, ds, p, best = self._setup(seed=4)
        tcfg = TrainConfig(seed=4, batch_size=64, n_pruning=2, omega_cvr=0.0)
        snap = p.init_snapshot.mlp_weights
        joint_train(p, best, ds, cfg, tcfg)
        for i in range(len(p.mlp_weights)):
            cvr_only = ((best[Task.CVR].layers[i] == 1)
                        & (best[Task.CTR].layers[i] == 0))
            if cvr_only.any():
                # zero CVR gradient, and the gate blocks moment carry-over
                assert (p.mlp_weights[i][cvr_only] == snap[i][cvr_only]).all()

    def test_step_hook_called_every_batch(self):
        cfg, tcfg, ds, p, best = self._setup(seed=5)
        calls = []
        joint_train(p, best, ds, cfg, tcfg, step_hook=lambda b, pp: calls.append(b.task))
        n_batches = sum(-(-len(ds.subset(t, "train")[1]) // tcfg.batch_size)
                        for t in (Task.CTR, Task.CVR))
        assert len(calls) == n_batches * tcfg.joint_epochs

    def test_missing_mask_rejected(self):
        cfg, tcfg, ds, p, best = self._setup(seed=6)
        with pytest.raises(StateError):
            joint_train(p, {Task.CTR: best[Task.CTR]}, ds, cfg, tcfg)


def replay_epochs(params, cfg, ds, tcfg, tasks, masks, weights, epochs, stream, calls=None):
    """Reference: the epoch loop written out, one Adam over all ``epochs``;
    returns each epoch's mean loss. ``calls`` collects each batch."""
    opt = nn.Adam(params, tcfg.learning_rate)
    means = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        for batch in batches(ds, tasks, tcfg.batch_size, tcfg.seed, stream + epoch):
            total += training._train_step(params, cfg, opt, batch, masks.get(batch.task),
                                          weights[batch.task])
            count += 1
            if calls is not None:
                calls.append(batch)
        means.append(total / count)
    return means


class TestStageReplay:
    """Each stage's params and history rows equal those of its loop written
    out by hand over ``_train_step``, byte for byte."""

    def _setup(self, seed=12, **kw):
        cfg = make_config()
        tcfg = TrainConfig(seed=seed, batch_size=64, **kw)
        return cfg, tcfg, make_dataset(500, seed=seed)

    def test_warmup(self):
        cfg, tcfg, ds = self._setup(warmup_epochs=2)
        p, history = model.init_params(cfg, tcfg.seed), []
        warmup(p, ds, cfg, tcfg, history)
        ref = model.init_params(cfg, tcfg.seed)
        omegas = {t: tcfg.omega(t) for t in TASKS}
        means = replay_epochs(ref, cfg, ds, tcfg, TASKS, {}, omegas, 2,
                              training._WARMUP_EPOCH_BASE)
        assert p.flat.tobytes() == ref.flat.tobytes()
        assert p.init_snapshot.flat.tobytes() == ref.flat.tobytes()
        assert history == [{"stage": "warmup", "epoch": e, "mean_loss": m}
                           for e, m in enumerate(means)]

    def test_mask_search_round(self, monkeypatch):
        """Round ``rnd`` of task ``ti`` trains its mask from the snapshot
        with one Adam over ``mask_epochs`` epochs, epoch ``e`` on stream
        ``_MASKGEN_EPOCH_BASE + ti*10_000 + rnd*mask_epochs + e``."""
        cfg, tcfg, ds = self._setup(mask_epochs=2, n_pruning=1)
        p = model.init_params(cfg, tcfg.seed)
        warmup(p, ds, cfg, tcfg)
        trained = []   # the live weights each round is scored with
        evaluate = training.evaluate
        monkeypatch.setattr(training, "evaluate",
                            lambda params, *a, **k: trained.append(params.flat.copy())
                            or evaluate(params, *a, **k))
        history = []
        masks, _ = generate_masks(p, ds, cfg, tcfg, history)
        monkeypatch.undo()
        assert len(trained) == len(history) == 2 * (tcfg.n_pruning + 1)
        rows = iter(zip(trained, history))
        for ti, task in enumerate(TASKS):
            ids_val, labels_val = ds.subset(task, "val")
            for rnd, mask in enumerate(masks[task]):
                ref = p.init_snapshot.copy()
                replay_epochs(ref, cfg, ds, tcfg, [task], {task: mask}, {task: 1.0}, 2,
                              training._MASKGEN_EPOCH_BASE + ti * 10_000 + rnd * 2)
                got, row = next(rows)
                assert got.tobytes() == ref.flat.tobytes(), (task, rnd)
                assert row == {"stage": "mask_gen", "task": task.value, "round": rnd,
                               "proportion_left": mask.survivor_fraction(),
                               "val": evaluate(ref, cfg, task, ids_val, labels_val, mask=mask)}

    def test_joint_train(self):
        cfg, tcfg, ds = self._setup(joint_epochs=2)
        rng = nn.make_rng(13)
        start = model.init_params(cfg, tcfg.seed)
        best = {t: TaskMask([(rng.random(w.shape) < 0.7).astype(np.float64)
                             for w in start.mlp_weights], t) for t in TASKS}
        p, history, hooked = start.copy(), [], []
        joint_train(p, best, ds, cfg, tcfg, history,
                    step_hook=lambda b, pp: hooked.append((b, pp)))
        ref, calls = start.copy(), []
        omegas = {t: tcfg.omega(t) for t in TASKS}
        means = replay_epochs(ref, cfg, ds, tcfg, TASKS, best, omegas, 2,
                              training._JOINT_EPOCH_BASE, calls)
        assert p.flat.tobytes() == ref.flat.tobytes()
        assert history == [{"stage": "joint", "epoch": e, "mean_loss": m}
                           for e, m in enumerate(means)]
        assert len(hooked) == len(calls) > 0 and all(pp is p for _, pp in hooked)
        assert [(b.task, b.ids.tobytes()) for b, _ in hooked] == \
            [(b.task, b.ids.tobytes()) for b in calls]


class TestBaselines:
    def test_single_task_networks_independent(self):
        cfg = make_config(mode=SharingMode.SINGLE_TASK)
        tcfg = TrainConfig(seed=7, batch_size=64, sharing_mode=SharingMode.SINGLE_TASK)
        ds = make_dataset(400, seed=7)
        art = train_baseline(ds, cfg, tcfg)
        assert isinstance(art.params, dict)
        p_ctr, p_cvr = art.params[Task.CTR], art.params[Task.CVR]
        assert p_ctr is not p_cvr
        assert any((a != b).any() for a, b in zip(p_ctr.blocks(), p_cvr.blocks()))
        # CTR net trained only on CTR data: retraining it alone reproduces it
        p2 = model.init_params(cfg, tcfg.seed)
        opt = nn.Adam(p2, tcfg.learning_rate)
        for epoch in range(tcfg.joint_epochs):
            for batch in batches(ds, [Task.CTR], tcfg.batch_size, tcfg.seed,
                                 training._BASELINE_EPOCH_BASE + epoch):
                training._train_step(p2, cfg, opt, batch, None, 1.0)
        for a, b in zip(p_ctr.blocks(), p2.blocks()):
            assert (a == b).all()

    def test_layer_share_shared_trunk(self):
        """layer_share is one net trained jointly from the init under its
        fixed tower masks: the trunk moves, and each task's tower moves on
        its own steps only."""
        cfg = make_config(mode=SharingMode.LAYER_SHARE)
        tcfg = TrainConfig(seed=8, batch_size=64, sharing_mode=SharingMode.LAYER_SHARE)
        ds = make_dataset(400, seed=8)
        art = train_model(ds, cfg, tcfg)
        assert art.params[Task.CTR] is art.params[Task.CVR]
        assert art.masks == art.best_i == {} and art.best_mask(Task.CTR) is None
        assert [h["stage"] for h in art.history] == ["joint"]
        init = model.init_params(cfg, tcfg.seed)
        assert (art.params[Task.CTR].mlp_weights[0] != init.mlp_weights[0]).any()
        with pytest.raises(ConfigError, match="layer_share is not single_task"):
            train_baseline(ds, cfg, tcfg)

        # one CTR-only epoch leaves the CVR tower's weights at their init
        cvr = ds.task(Task.CVR)
        ctr_only = Dataset(ds.field_cardinalities, {
            Task.CTR: ds.task(Task.CTR),
            Task.CVR: TaskData(cvr.ids[:0], cvr.labels[:0], cvr.split[:0])})
        art = train_model(ctr_only, cfg, tcfg)
        half = cfg.mlp_dims[-2] // 2
        w_in, w_out = art.params[Task.CTR].mlp_weights[-2:]
        assert (w_in[:, half:] == init.mlp_weights[-2][:, half:]).all()
        assert (w_out[half:] == init.mlp_weights[-1][half:]).all()
        assert (w_in[:, :half] != init.mlp_weights[-2][:, :half]).any()

    def test_mask_mode_rejected(self):
        cfg = make_config()
        tcfg = TrainConfig(seed=0)
        with pytest.raises(ConfigError):
            train_baseline(make_dataset(100), cfg, tcfg)


class TestTrainModel:
    def test_mode_mismatch_rejected(self):
        cfg = make_config(mode=SharingMode.NEURON_SHARE)
        tcfg = TrainConfig(sharing_mode=SharingMode.CONNECTION_SHARE)
        with pytest.raises(ConfigError):
            train_model(make_dataset(100), cfg, tcfg)

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_all_modes_produce_test_metrics(self, mode):
        cfg = make_config(mode=mode)
        tcfg = TrainConfig(seed=9, batch_size=64, n_pruning=1, sharing_mode=mode)
        ds = make_dataset(500, seed=9)
        art = train_model(ds, cfg, tcfg)
        out = evaluate_artifacts(art, ds, cfg)
        assert 0.0 <= out["ctr_auc"] <= 1.0
        assert out["cvr_mse"] >= 0.0

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_artifact_shape(self, mode):
        """One params object under both tasks in a shared mode, one per task
        in single_task; masks and best rounds only where they were searched."""
        cfg = make_config(mode=mode)
        tcfg = TrainConfig(seed=9, batch_size=64, n_pruning=1, sharing_mode=mode)
        art = train_model(make_dataset(300, seed=9), cfg, tcfg)
        assert list(art.params) == list(TASKS)
        shared = mode is not SharingMode.SINGLE_TASK
        assert (art.params[Task.CTR] is art.params[Task.CVR]) == shared
        searched = mode in (SharingMode.CONNECTION_SHARE, SharingMode.NEURON_SHARE)
        assert list(art.masks) == list(art.best_i) == (list(TASKS) if searched else [])
        for t in TASKS:
            best = art.best_mask(t)
            assert best is (art.masks[t][art.best_i[t]] if searched else None)

    def test_deterministic_end_to_end(self):
        cfg = make_config()
        tcfg = TrainConfig(seed=10, batch_size=64, n_pruning=1)
        ds = make_dataset(400, seed=10)
        a = train_model(ds, cfg, tcfg)
        b = train_model(ds, cfg, tcfg)
        for x, y in zip(a.params[Task.CTR].blocks(), b.params[Task.CTR].blocks()):
            assert (x == y).all()
        assert a.best_i == b.best_i
        for t in (Task.CTR, Task.CVR):
            assert a.best_mask(t) == b.best_mask(t)
        assert evaluate_artifacts(a, ds, cfg) == evaluate_artifacts(b, ds, cfg)


def forward_loop_predict(params, cfg, task, ids, mask=None, chunk=PREDICT_CHUNK):
    """Reference: one full model.forward per chunk, as predict once ran."""
    out = [model.forward(ids[i:i + chunk], params, cfg, task, mask=mask)
           for i in range(0, len(ids), chunk)]
    return np.concatenate(out) if out else np.empty(0)


PREDICT_MODES = [*((mode, False) for mode in SharingMode),
                 (SharingMode.CONNECTION_SHARE, True), (SharingMode.NEURON_SHARE, True)]


class TestPredictTasks:
    """predict_tasks shares one embedding and cross pass between tasks with
    the same params, and gives each task the bytes of its own forward pass."""

    def check_per_task_forward(self, mode, masked, n, chunk=PREDICT_CHUNK):
        """predict_tasks and predict over ``n`` rows, in chunks of
        ``training.PREDICT_CHUNK`` rows, against the per-chunk forward
        reference in chunks of ``chunk`` rows."""
        cfg = make_config(mode)
        shared = model.init_params(cfg, 3)
        params = {Task.CTR: shared, Task.CVR: shared}
        if mode is SharingMode.SINGLE_TASK:
            params[Task.CVR] = model.init_params(cfg, 4)
        masks = {t: None for t in TASKS}
        if masked:
            rng = nn.make_rng(5)
            for ti, t in enumerate(TASKS):
                layers = [(rng.random(w.shape) < 0.6 + 0.2 * ti).astype(np.float64)
                          for w in shared.mlp_weights]
                masks[t] = TaskMask(layers, t)
        ids = np.stack([nn.make_rng(6).integers(0, c, n) for c in cfg.field_cardinalities],
                       axis=1)
        got = predict_tasks({t: (params[t], cfg, masks[t]) for t in TASKS}, ids)
        assert list(got) == list(TASKS)
        for t in TASKS:
            want = forward_loop_predict(params[t], cfg, t, ids, masks[t], chunk)
            assert got[t].tobytes() == want.tobytes()
            assert predict(params[t], cfg, t, ids, masks[t]).tobytes() == want.tobytes()
        if masked or mode in (SharingMode.SINGLE_TASK, SharingMode.LAYER_SHARE):
            assert got[Task.CTR].tobytes() != got[Task.CVR].tobytes()

    @pytest.mark.parametrize("mode,masked", PREDICT_MODES)
    @pytest.mark.parametrize("chunk", [7, PREDICT_CHUNK, 8192,
                                       pytest.param(None, id="default")])
    def test_bytes_equal_per_task_forward(self, mode, masked, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(training, "PREDICT_CHUNK", chunk)
        self.check_per_task_forward(mode, masked, 50, chunk or PREDICT_CHUNK)

    @pytest.mark.parametrize("mode,masked", PREDICT_MODES)
    def test_default_chunks_and_tail(self, mode, masked):
        """Two full default chunks and a 3-row tail."""
        self.check_per_task_forward(mode, masked, 2 * PREDICT_CHUNK + 3)

    def test_default_chunk_is_predict_chunk(self, monkeypatch):
        cfg = make_config()
        p = model.init_params(cfg, 3)
        rows = []
        front = model.front
        monkeypatch.setattr(model, "front",
                            lambda ids, *a: rows.append(len(ids)) or front(ids, *a))
        predict(p, cfg, Task.CTR, np.zeros((2 * PREDICT_CHUNK + 3, 4), dtype=np.int64))
        assert rows == [PREDICT_CHUNK, PREDICT_CHUNK, 3]

    def test_front_runs_once_per_params_object(self, monkeypatch):
        cfg = make_config()
        p = model.init_params(cfg, 3)
        calls = []
        front = model.front
        monkeypatch.setattr(model, "front", lambda *a: calls.append(a[1]) or front(*a))
        ids = np.zeros((20, 4), dtype=np.int64)
        monkeypatch.setattr(training, "PREDICT_CHUNK", 8)
        predict_tasks({t: (p, cfg, None) for t in TASKS}, ids)
        assert len(calls) == 3 and all(c is p for c in calls)
        calls.clear()
        q = p.copy()
        predict_tasks({Task.CTR: (p, cfg, None), Task.CVR: (q, cfg, None)}, ids)
        assert len(calls) == 6

    def test_empty_ids(self):
        cfg = make_config()
        p = model.init_params(cfg, 3)
        got = predict_tasks({t: (p, cfg, None) for t in TASKS},
                            np.zeros((0, 4), dtype=np.int64))
        assert all(got[t].shape == (0,) for t in TASKS)
