"""Training pipeline: warmup, per-task mask generation with weight rewind,
best-mask selection, alternating masked joint training, and the baselines.

The per-task loss is BCE for CTR and squared error for CVR, averaged over the
batch; the joint loss scales the active task's loss by its omega weight. A
task only ever updates its own subnetwork's MLP weights: masked entries get a
zero gradient from the masked forward, and the optimizer update itself is
gated by the task mask so moments built by the other task cannot leak in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import masking, metrics, model, nn
from .data import Batch, Dataset, batches
from .errors import ConfigError, StateError, TrainingDivergedError
from .masking import TaskMask
from .model import ModelConfig, ModelParams, SharingMode, Task, TASKS

# disjoint shuffle streams per stage
_WARMUP_EPOCH_BASE = 0
_MASKGEN_EPOCH_BASE = 100_000
_JOINT_EPOCH_BASE = 200_000
_BASELINE_EPOCH_BASE = 300_000

# The largest loss of one task on one step, before its omega weight, that
# training accepts. A BCE loss this large needs logits of mean magnitude near
# 1e6, far past where the sigmoid saturates, and a squared error of
# probabilities is at most 1, so a run that learns never comes near it;
# diverging runs pass it while their losses are still finite.
MAX_STEP_LOSS = 1e6

# Rows per forward call in ``predict``. With the default dims, one chunk's
# cross output (736 KB) and first hidden layer (512 KB) fit in a 2 MB L2
# cache, so each layer reads its input from cache. BLAS rounds by the rows
# of each call, so this constant is part of the prediction bits (README).
PREDICT_CHUNK = 1024


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    omega_ctr: float = 0.7
    omega_cvr: float = 0.3
    prune_fraction: float = 0.2  # q of Algorithm step 2b
    n_pruning: int = 3
    warmup_epochs: int = 1
    mask_epochs: int = 1
    joint_epochs: int = 1
    seed: int = 0
    sharing_mode: SharingMode = SharingMode.CONNECTION_SHARE

    def __post_init__(self):
        object.__setattr__(self, "sharing_mode", SharingMode(self.sharing_mode))
        if self.omega_ctr < 0 or self.omega_cvr < 0:
            raise ConfigError("loss weights must be >= 0")
        if not 0.0 < self.prune_fraction < 1.0:
            raise ConfigError(f"prune_fraction must be in (0,1), got {self.prune_fraction}")
        if self.n_pruning < 1:
            raise ConfigError(f"n_pruning must be >= 1, got {self.n_pruning}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")

    def omega(self, task: Task) -> float:
        return self.omega_ctr if Task(task) is Task.CTR else self.omega_cvr


def _loss_and_dlogit(logits: np.ndarray, preds: np.ndarray, labels: np.ndarray,
                     task: Task) -> tuple[float, np.ndarray]:
    n = len(labels)
    if Task(task) is Task.CTR:
        # BCE via logits, overflow-safe
        loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))
        dlogit = (preds - labels) / n
    else:
        diff = preds - labels
        loss = float(np.mean(np.square(diff)))
        dlogit = 2.0 * diff * preds * (1.0 - preds) / n
    return loss, dlogit


@np.errstate(over="ignore", invalid="ignore")
def _train_step(params: ModelParams, cfg: ModelConfig, opt: nn.Adam, batch: Batch,
                mask: TaskMask | None, weight: float) -> float:
    """One step; returns its weighted loss. Overflow and NaN warnings are
    off for the step alone: a diverging step's loss says so, and ``_epochs``
    raises on it."""
    preds, cache = model.forward(batch.ids, params, cfg, batch.task,
                                 mask=mask, want_cache=True)
    loss, dlogit = _loss_and_dlogit(cache.logits, preds, batch.labels, batch.task)
    grads = model.backward(weight * dlogit, cache, params, cfg, mask=mask)
    opt.step(grads, None if mask is None else mask.update_gate(params))
    return weight * loss


def predict(params: ModelParams, cfg: ModelConfig, task: Task, ids: np.ndarray,
            mask: TaskMask | None = None, chunk: int = PREDICT_CHUNK) -> np.ndarray:
    """``model.forward`` predictions over ``ids``, in chunks of ``chunk`` rows."""
    task = Task(task)
    return predict_tasks({task: (params, cfg, mask)}, ids, chunk)[task]


def predict_tasks(nets: dict[Task, tuple[ModelParams, ModelConfig, TaskMask | None]],
                  ids: np.ndarray, chunk: int = PREDICT_CHUNK) -> dict[Task, np.ndarray]:
    """Predictions of each task's ``(params, cfg, mask)`` over the same ids.

    Per chunk, ``model.front`` (embedding and cross) runs once for each
    distinct params object, then each task's MLP under its mask. Tasks that
    share a params object, as in a shared-embedding run dir, share that
    pass. Each task's result is byte-equal to its own ``predict`` call.
    """
    heads = {task: model.task_weights(params, cfg, task, mask)
             for task, (params, cfg, mask) in nets.items()}
    out: dict[Task, list[np.ndarray]] = {task: [] for task in nets}
    for i in range(0, len(ids), chunk):
        fronts: dict[int, np.ndarray] = {}
        for task, (params, cfg, _) in nets.items():
            if id(params) not in fronts:
                fronts[id(params)] = model.front(ids[i:i + chunk], params, cfg)[2]
            out[task].append(model.mlp_forward(fronts[id(params)], *heads[task])[0])
    return {task: np.concatenate(p) if p else np.empty(0) for task, p in out.items()}


def evaluate(params: ModelParams, cfg: ModelConfig, task: Task,
             ids: np.ndarray, labels: np.ndarray,
             mask: TaskMask | None = None) -> float:
    """AUC for CTR (bigger better), MSE for CVR (smaller better)."""
    preds = predict(params, cfg, task, ids, mask=mask)
    if Task(task) is Task.CTR:
        return metrics.auc(labels, preds)
    return metrics.mse(labels, preds)


def _epochs(params: ModelParams, cfg: ModelConfig, dataset: Dataset, tcfg: TrainConfig,
            tasks, masks: dict[Task, TaskMask], weights: dict[Task, float], epochs: int,
            stream: int, stage: str, step_hook=None):
    """The epoch loop of every training stage: ``epochs`` epochs over the
    batches of ``tasks`` with one fresh Adam, epoch ``e`` on shuffle stream
    ``stream + e``. Each step runs under ``masks.get(task)`` and scales its
    loss by ``weights[task]``; ``step_hook(batch, params)`` follows each step.
    Yields each epoch's mean step loss. A step whose loss is not finite or,
    before its weight, above ``MAX_STEP_LOSS`` raises TrainingDivergedError
    naming ``stage``, the task, the epoch and the step."""
    opt = nn.Adam(params, tcfg.learning_rate)
    for epoch in range(epochs):
        total, count = 0.0, 0
        for batch in batches(dataset, tasks, tcfg.batch_size, tcfg.seed, stream + epoch):
            weight = weights[batch.task]
            loss = _train_step(params, cfg, opt, batch, masks.get(batch.task), weight)
            if not math.isfinite(loss) or loss > MAX_STEP_LOSS * weight:
                raise TrainingDivergedError(
                    f"training diverged in {stage}, task {batch.task.value}, epoch {epoch}, "
                    f"step {count}: loss {loss:.6g} at weight {weight:g} is not finite or "
                    f"above {MAX_STEP_LOSS:g} times the weight; try a lower "
                    "train.learning_rate")
            total += loss
            count += 1
            if step_hook is not None:
                step_hook(batch, params)
        yield total / max(count, 1)


def warmup(params: ModelParams, dataset: Dataset, cfg: ModelConfig,
           tcfg: TrainConfig, history: list | None = None) -> None:
    """Algorithm step 1: train unmasked on the mixed stream, then freeze the
    trained weights as the rewind snapshot."""
    omegas = {t: tcfg.omega(t) for t in TASKS}
    for epoch, loss in enumerate(_epochs(params, cfg, dataset, tcfg, TASKS, {}, omegas,
                                         tcfg.warmup_epochs, _WARMUP_EPOCH_BASE, "warmup")):
        if history is not None:
            history.append({"stage": "warmup", "epoch": epoch, "mean_loss": loss})
    params.take_snapshot()


def generate_masks(params: ModelParams, dataset: Dataset, cfg: ModelConfig,
                   tcfg: TrainConfig, history: list | None = None
                   ) -> tuple[dict[Task, list[TaskMask]], dict[Task, int]]:
    """Algorithm step 2: per-task iterative magnitude pruning with rewind.

    For each task, round r trains an epoch under mask r from the snapshot,
    scores mask r on the validation split, prunes to mask r+1, and rewinds.
    Returns all candidate masks (rounds 0..n_pruning) and the best round per
    task by validation AUC (CTR) / MSE (CVR). Live weights end rewound.
    """
    if params.init_snapshot is None:
        raise StateError("generate_masks called before warmup snapshot")
    prune = (masking.prune_neurons if tcfg.sharing_mode is SharingMode.NEURON_SHARE
             else masking.prune_connections)
    all_masks: dict[Task, list[TaskMask]] = {}
    best_i: dict[Task, int] = {}
    for ti, task in enumerate(TASKS):
        ids_val, labels_val = dataset.subset(task, "val")
        mask = TaskMask.all_ones(params.mlp_weights, task)
        candidates = [mask]
        scores = []
        for rnd in range(tcfg.n_pruning + 1):
            params.rewind()
            for _ in _epochs(params, cfg, dataset, tcfg, [task], {task: mask}, {task: 1.0},
                             tcfg.mask_epochs,
                             _MASKGEN_EPOCH_BASE + ti * 10_000 + rnd * tcfg.mask_epochs,
                             f"mask search round {rnd}"):
                pass
            score = evaluate(params, cfg, task, ids_val, labels_val, mask=mask)
            scores.append(score)
            if history is not None:
                history.append({"stage": "mask_gen", "task": task.value,
                                "round": rnd,
                                "proportion_left": mask.survivor_fraction(),
                                "val": score})
            if rnd < tcfg.n_pruning:
                mask = prune(params.mlp_weights, mask, tcfg.prune_fraction)
                candidates.append(mask)
            params.rewind()
        all_masks[task] = candidates
        if task is Task.CTR:
            best = int(np.argmax(scores))
        else:
            best = int(np.argmin(scores))
        best_i[task] = best
    return all_masks, best_i


@dataclass
class TrainedArtifacts:
    """A trained run. ``params`` holds the net each task predicts with: one
    object under both tasks in the shared modes, one per task in
    single_task. ``masks`` holds each task's searched masks by round and
    ``best_i`` the round selected; both are empty when nothing was searched."""
    mode: SharingMode
    params: dict[Task, ModelParams]
    masks: dict[Task, list[TaskMask]] = field(default_factory=dict)
    best_i: dict[Task, int] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)

    def best_mask(self, task: Task) -> TaskMask | None:
        task = Task(task)
        return self.masks[task][self.best_i[task]] if task in self.masks else None


def joint_train(params: ModelParams, best_masks: dict[Task, TaskMask],
                dataset: Dataset, cfg: ModelConfig, tcfg: TrainConfig,
                history: list | None = None,
                step_hook=None) -> None:
    """Algorithm step 3: from the live weights, which ``generate_masks``
    leaves rewound to the snapshot, alternate masked updates so each task
    trains only its subnetwork; overlap weights are trained by both."""
    for task in TASKS:
        if task not in best_masks:
            raise StateError(f"joint_train: missing best mask for task {task.value}")
    omegas = {t: tcfg.omega(t) for t in TASKS}
    for epoch, loss in enumerate(_epochs(params, cfg, dataset, tcfg, TASKS, best_masks, omegas,
                                         tcfg.joint_epochs, _JOINT_EPOCH_BASE, "joint training",
                                         step_hook)):
        if history is not None:
            history.append({"stage": "joint", "epoch": epoch, "mean_loss": loss})


def train_baseline(dataset: Dataset, cfg: ModelConfig,
                   tcfg: TrainConfig) -> TrainedArtifacts:
    """single_task: two independent nets, one per task, each on its own
    samples."""
    mode = cfg.sharing_mode
    if mode is not SharingMode.SINGLE_TASK:
        raise ConfigError(f"train_baseline: mode {mode.value} is not single_task")
    history: list[dict] = []
    per_task: dict[Task, ModelParams] = {}
    for ti, task in enumerate(TASKS):
        per_task[task] = model.init_params(cfg, tcfg.seed + ti)
        for epoch, loss in enumerate(_epochs(per_task[task], cfg, dataset, tcfg, [task], {},
                                             {task: 1.0}, tcfg.joint_epochs,
                                             _BASELINE_EPOCH_BASE, "single-task training")):
            history.append({"stage": "single", "task": task.value, "epoch": epoch,
                            "mean_loss": loss})
    return TrainedArtifacts(mode, per_task, history=history)


def train_model(dataset: Dataset, cfg: ModelConfig, tcfg: TrainConfig) -> TrainedArtifacts:
    """End-to-end training for any sharing mode. The shared modes differ
    only in where the masks of the joint training come from: layer_share
    takes its fixed ``model.tower_masks`` and trains from the init, with no
    warmup or search, and its artifacts carry no masks, since ``predict``
    with no mask resolves to those; the pruning modes search theirs."""
    if cfg.sharing_mode is not tcfg.sharing_mode:
        raise ConfigError("model and train configs disagree on sharing mode")
    mode = cfg.sharing_mode
    if mode is SharingMode.SINGLE_TASK:
        return train_baseline(dataset, cfg, tcfg)
    history: list[dict] = []
    params = model.init_params(cfg, tcfg.seed)
    masks, best_i = {}, {}
    if mode.prunes:
        warmup(params, dataset, cfg, tcfg, history)
        masks, best_i = generate_masks(params, dataset, cfg, tcfg, history)
        best = {t: masks[t][best_i[t]] for t in TASKS}
    else:
        best = {t: TaskMask(layers, t) for t, layers in model.tower_masks(cfg).items()}
    joint_train(params, best, dataset, cfg, tcfg, history)
    return TrainedArtifacts(mode, dict.fromkeys(TASKS, params), masks, best_i, history)


def evaluate_artifacts(art: TrainedArtifacts, dataset: Dataset, cfg: ModelConfig,
                       split: str = "test") -> dict[str, float]:
    """Each task's metric on ``split``, as ``ctr_auc`` and ``cvr_mse``. A task
    without rows there, or CTR labels of one class, raise; the CLI checks
    the splits a command reads before it trains."""
    out = {}
    for task in TASKS:
        ids, labels = dataset.subset(task, split)
        score = evaluate(art.params[task], cfg, task, ids, labels,
                         mask=art.best_mask(task))
        key = "ctr_auc" if task is Task.CTR else "cvr_mse"
        out[key] = score
    return out
