"""Synthetic CTR/CVR data with nested sample spaces, TSV files, batching.

Every CVR row corresponds to a clicked (positive) CTR row by construction:
conversions only exist for clicked impressions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, DataError
from .model import Task, TASKS

SPLITS = ("train", "val", "test")
_SPLIT_INDEX = {name: i for i, name in enumerate(SPLITS)}


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 1000
    n_items: int = 1000
    field_cardinalities: tuple[int, ...] = (16,) * 8
    latent_dim: int = 8
    click_base_rate: float = 0.2
    click_noise: float = 0.5
    cvr_noise: float = 0.5
    task_correlation: float = 0.8  # rho: relatedness of the click and conversion logits
    n_impressions: int = 50000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "field_cardinalities",
                           tuple(int(c) for c in self.field_cardinalities))
        if self.n_users < 1 or self.n_items < 1 or self.n_impressions < 1:
            raise ConfigError("n_users, n_items, n_impressions must be >= 1")
        if not self.field_cardinalities or any(c < 1 for c in self.field_cardinalities):
            raise ConfigError(f"bad field cardinalities: {self.field_cardinalities}")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if not 0.0 < self.click_base_rate < 1.0:
            raise ConfigError("click_base_rate must be in (0,1)")
        if not -1.0 <= self.task_correlation <= 1.0:
            raise ConfigError("task_correlation must be in [-1,1]")


@dataclass
class TaskData:
    ids: np.ndarray      # (n, F) int64
    labels: np.ndarray   # (n,) float64
    split: np.ndarray    # (n,) uint8 index into SPLITS

    @property
    def n(self) -> int:
        return len(self.labels)

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        sel = self.split == _SPLIT_INDEX[split]
        return self.ids[sel], self.labels[sel]


@dataclass
class Dataset:
    field_cardinalities: tuple[int, ...]
    tasks: dict[Task, TaskData]

    def task(self, task: Task) -> TaskData:
        return self.tasks[Task(task)]

    def subset(self, task: Task, split: str) -> tuple[np.ndarray, np.ndarray]:
        return self.task(task).subset(split)

    def counts(self) -> dict[str, int]:
        ctr = self.tasks[Task.CTR]
        return {
            "impressions": ctr.n,
            "clicks": int(ctr.labels.sum()),
            "conversions": self.tasks[Task.CVR].n,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.field_cardinalities != other.field_cardinalities:
            return False
        if set(self.tasks) != set(other.tasks):
            return False
        for t in self.tasks:
            a, b = self.tasks[t], other.tasks[t]
            if not ((a.ids == b.ids).all() and (a.labels == b.labels).all()
                    and (a.split == b.split).all()):
                return False
        return True


def _split_of(seed: int, impression_id: int) -> int:
    """Deterministic 80/10/10 hash split, stable across runs and platforms."""
    h = zlib.crc32(f"{seed}:{impression_id}".encode("ascii")) % 10
    return 0 if h < 8 else (1 if h == 8 else 2)


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _intercept_for_rate(utilities: np.ndarray, rate: float) -> float:
    """Bisect b so that mean(sigmoid(b + u)) == rate; sigmoid convexity would
    otherwise push the realized click rate above the configured base rate."""
    lo, hi = _logit(rate) - 30.0, _logit(rate) + 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.mean(nn.sigmoid(mid + utilities))) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_with_trace(spec: SyntheticSpec) -> tuple[Dataset, dict[str, np.ndarray]]:
    """Generate a dataset and return the latent logits for diagnostics."""
    rng = nn.make_rng(spec.seed)
    L = spec.latent_dim
    scale = 1.0 / np.sqrt(L)
    user_shared = rng.standard_normal((spec.n_users, L))
    item_shared = rng.standard_normal((spec.n_items, L))
    user_click = rng.standard_normal((spec.n_users, L))
    item_click = rng.standard_normal((spec.n_items, L))
    user_conv = rng.standard_normal((spec.n_users, L))
    item_conv = rng.standard_normal((spec.n_items, L))

    n = spec.n_impressions
    u = rng.integers(0, spec.n_users, size=n)
    it = rng.integers(0, spec.n_items, size=n)
    shared = np.einsum("nd,nd->n", user_shared[u], item_shared[it]) * scale
    click_spec = np.einsum("nd,nd->n", user_click[u], item_click[it]) * scale
    conv_spec = np.einsum("nd,nd->n", user_conv[u], item_conv[it]) * scale

    utilities = shared + click_spec + spec.click_noise * rng.standard_normal(n)
    click_logit = _intercept_for_rate(utilities, spec.click_base_rate) + utilities
    p_click = nn.sigmoid(click_logit)
    clicked = rng.random(n) < p_click
    conv_logit = (spec.task_correlation * shared + conv_spec
                  + spec.cvr_noise * rng.standard_normal(n))
    cvr_label = np.clip(nn.sigmoid(conv_logit), 0.0, 1.0)

    # categorical features: quantized latent coordinates, alternating user/item
    F = len(spec.field_cardinalities)
    ids = np.empty((n, F), dtype=np.int64)
    for f, card in enumerate(spec.field_cardinalities):
        if f % 2 == 0:
            z = user_shared[u, (f // 2) % L]
        else:
            z = item_shared[it, (f // 2) % L]
        ids[:, f] = np.minimum((nn.sigmoid(z) * card).astype(np.int64), card - 1)

    split = np.fromiter((_split_of(spec.seed, i) for i in range(n)),
                        dtype=np.uint8, count=n)
    ctr = TaskData(ids=ids, labels=clicked.astype(np.float64), split=split)
    cvr = TaskData(ids=ids[clicked].copy(), labels=cvr_label[clicked].copy(),
                   split=split[clicked].copy())
    dataset = Dataset(spec.field_cardinalities, {Task.CTR: ctr, Task.CVR: cvr})
    trace = {"click_logit": click_logit, "conv_logit": conv_logit,
             "p_click": p_click, "clicked": clicked}
    return dataset, trace


def generate(spec: SyntheticSpec) -> Dataset:
    return generate_with_trace(spec)[0]


def save(dataset: Dataset, path) -> None:
    """TSV: header with field cardinalities, then task/label/ids/split rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cardinalities\t" + ",".join(map(str, dataset.field_cardinalities)) + "\n")
        for task in TASKS:
            td = dataset.tasks.get(task)
            if td is None:
                continue
            for i in range(td.n):
                ids = ",".join(map(str, td.ids[i]))
                fh.write(f"{task.value}\t{td.labels[i]:.17g}\t{ids}\t{SPLITS[td.split[i]]}\n")


def load(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return Dataset((), {Task.CTR: _empty_taskdata(0), Task.CVR: _empty_taskdata(0)})
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != "cardinalities":
        raise DataError(f"{path}:1: expected 'cardinalities<TAB>...' header")
    try:
        cards = tuple(int(c) for c in header[1].split(","))
    except ValueError as exc:
        raise DataError(f"{path}:1: bad cardinality list: {exc}") from exc
    rows: dict[Task, list[tuple[list[int], float, int]]] = {t: [] for t in TASKS}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise DataError(f"{path}:{lineno}: expected 3 or 4 tab-separated fields")
        try:
            task = Task(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown task {parts[0]!r}") from None
        try:
            label = float(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad label {parts[1]!r}") from None
        if task is Task.CTR and label not in (0.0, 1.0):
            raise DataError(f"{path}:{lineno}: CTR label must be 0 or 1, got {label}")
        if task is Task.CVR and not 0.0 <= label <= 1.0:
            raise DataError(f"{path}:{lineno}: CVR label must be in [0,1], got {label}")
        try:
            ids = [int(x) for x in parts[2].split(",")]
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad feature ids {parts[2]!r}") from None
        if len(ids) != len(cards):
            raise DataError(f"{path}:{lineno}: {len(ids)} ids for {len(cards)} fields")
        for f, (fid, card) in enumerate(zip(ids, cards)):
            if not 0 <= fid < card:
                raise DataError(f"{path}:{lineno}: id {fid} out of range for field {f} "
                                f"(cardinality {card})")
        if len(parts) == 4:
            if parts[3] not in _SPLIT_INDEX:
                raise DataError(f"{path}:{lineno}: unknown split {parts[3]!r}")
            split = _SPLIT_INDEX[parts[3]]
        else:
            split = _split_of(0, lineno)
        rows[task].append((ids, label, split))
    tasks = {}
    for t in TASKS:
        if rows[t]:
            tasks[t] = TaskData(
                ids=np.array([r[0] for r in rows[t]], dtype=np.int64),
                labels=np.array([r[1] for r in rows[t]], dtype=np.float64),
                split=np.array([r[2] for r in rows[t]], dtype=np.uint8),
            )
        else:
            tasks[t] = _empty_taskdata(len(cards))
    return Dataset(cards, tasks)


def _empty_taskdata(n_fields: int) -> TaskData:
    return TaskData(ids=np.empty((0, n_fields), dtype=np.int64),
                    labels=np.empty(0, dtype=np.float64),
                    split=np.empty(0, dtype=np.uint8))


@dataclass
class Batch:
    """Task-homogeneous minibatch; homogeneity realizes the per-task gate."""

    task: Task
    ids: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)


def _task_batches(td: TaskData, task: Task, split: str, batch_size: int,
                  rng: np.random.Generator) -> list[Batch]:
    ids, labels = td.subset(split)
    order = rng.permutation(len(labels))
    ids, labels = ids[order], labels[order]
    return [Batch(task, ids[i:i + batch_size], labels[i:i + batch_size])
            for i in range(0, len(labels), batch_size)]


def batches(dataset: Dataset, tasks, batch_size: int, seed: int, epoch: int,
            split: str = "train"):
    """Seeded per-epoch shuffled stream of task-homogeneous batches.

    With several tasks the per-task streams interleave proportionally to their
    batch counts via a seeded schedule; every sample appears exactly once.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    tasks = [Task(t) for t in tasks]
    per_task = {}
    for t in tasks:
        rng = np.random.default_rng([int(seed), int(epoch), list(TASKS).index(t)])
        per_task[t] = _task_batches(dataset.task(t), t, split, batch_size, rng)
    tags = np.concatenate([np.full(len(per_task[t]), ti, dtype=np.int64)
                           for ti, t in enumerate(tasks)]) if tasks else np.empty(0, np.int64)
    if len(tasks) > 1:
        sched_rng = np.random.default_rng([int(seed), int(epoch), 1000003])
        sched_rng.shuffle(tags)
    iters = {t: iter(per_task[t]) for t in tasks}
    for tag in tags:
        yield next(iters[tasks[int(tag)]])
