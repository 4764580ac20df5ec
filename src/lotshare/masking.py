"""Binary subnetwork masks: quantile pruning, the neuron variant, overlap stats.

Masks carry one {0,1} entry per MLP connection and are immutable once built:
each layer is a private read-only copy. Pruning returns a new mask with
pruning_round + 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MaskFormatError, ShapeError
from .model import ModelParams, TASKS, Task, check_mask_shapes

MASK_MAGIC = b"LTMK"
MASK_VERSION = 1


@dataclass
class TaskMask:
    layers: list[np.ndarray]  # read-only float64 {0,1}, shape-matching mlp_weights
    task: Task
    pruning_round: int = 0

    def __post_init__(self):
        self.task = Task(self.task)
        # copied and frozen: a mask cannot change under its owner
        self.layers = [np.array(m, dtype=np.float64) for m in self.layers]
        for m in self.layers:
            if not ((m == 0.0) | (m == 1.0)).all():
                raise ValueError("mask entries must be 0 or 1")
            m.flags.writeable = False

    def update_gate(self, params: ModelParams) -> tuple:
        """The per-block gate ``nn.Adam.step`` takes for this mask over
        ``params``' blocks: None (ungated) for each embedding table, this
        mask's layers for the MLP weights, and None for each bias."""
        return ((None,) * len(params.embeddings) + tuple(self.layers)
                + (None,) * len(params.mlp_biases))

    @classmethod
    def all_ones(cls, mlp_weights: list[np.ndarray], task: Task) -> "TaskMask":
        return cls([np.ones_like(w) for w in mlp_weights], task, 0)

    def survivor_count(self) -> int:
        return int(sum(m.sum() for m in self.layers))

    def total_count(self) -> int:
        return int(sum(m.size for m in self.layers))

    def survivor_fraction(self) -> float:
        return self.survivor_count() / self.total_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskMask):
            return NotImplemented
        return (self.task is other.task
                and self.pruning_round == other.pruning_round
                and len(self.layers) == len(other.layers)
                and all(a.shape == b.shape and (a == b).all()
                        for a, b in zip(self.layers, other.layers)))


def quantile_threshold(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the k-th smallest value, k = ceil(q * n)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("quantile_threshold: empty value sequence")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile_threshold: q must be in (0,1), got {q}")
    k = math.ceil(q * values.size)
    return float(np.partition(values, k - 1)[k - 1])


def prune_connections(mlp_weights: list[np.ndarray], mask: TaskMask, q: float) -> TaskMask:
    """Drop surviving connections whose |w| is strictly below the global
    nearest-rank q-quantile of surviving |w|; ties at the threshold survive."""
    check_mask_shapes(mlp_weights, mask.layers)
    surviving = np.concatenate(
        [np.abs(w[m != 0]) for w, m in zip(mlp_weights, mask.layers)])
    x = quantile_threshold(surviving, q)
    new_layers = [m * (np.abs(w) >= x) for w, m in zip(mlp_weights, mask.layers)]
    return TaskMask(new_layers, mask.task, mask.pruning_round + 1)


def prune_neurons(mlp_weights: list[np.ndarray], mask: TaskMask, q: float) -> TaskMask:
    """Neuron_Share variant: remove whole hidden units instead of connections.

    A hidden unit's importance is the L2 norm of its surviving incoming
    weights. Units below the global q-quantile of surviving units lose all
    incoming and outgoing connections. Output units are never pruned.
    Raises ConfigError when no hidden unit survives in ``mask``.
    """
    check_mask_shapes(mlp_weights, mask.layers)
    # hidden units are the output side of every transition except the last
    per_layer = []
    pool = []
    for w, m in zip(mlp_weights[:-1], mask.layers[:-1]):
        incoming = w * m
        importance = np.sqrt(np.square(incoming).sum(axis=0))
        alive = (m != 0).any(axis=0)
        per_layer.append((importance, alive))
        pool.append(importance[alive])
    pooled = np.concatenate(pool) if pool else np.array([])
    if pooled.size == 0:
        raise ConfigError(
            f"neuron pruning: mask round {mask.pruning_round} has no hidden unit left "
            f"to prune, since an earlier round removed a whole hidden layer; try a lower "
            f"train.prune_fraction (now {q:g})")
    x = quantile_threshold(pooled, q)
    new_layers = [m.copy() for m in mask.layers]
    for li, (importance, alive) in enumerate(per_layer):
        doomed = alive & (importance < x)
        new_layers[li][:, doomed] = 0.0
        new_layers[li + 1][doomed, :] = 0.0
    return TaskMask(new_layers, mask.task, mask.pruning_round + 1)


@dataclass
class MaskOverlapStats:
    shared: int
    ctr_only: int
    cvr_only: int
    dead: int
    per_layer: list[tuple[int, int, int, int]]

    @property
    def total(self) -> int:
        return self.shared + self.ctr_only + self.cvr_only + self.dead

    def to_text(self) -> str:
        rows = [("layer", "shared", "ctr_only", "cvr_only", "dead")]
        for i, (s, c, v, d) in enumerate(self.per_layer):
            rows.append((str(i), str(s), str(c), str(v), str(d)))
        rows.append(("total", str(self.shared), str(self.ctr_only),
                     str(self.cvr_only), str(self.dead)))
        widths = [max(len(r[c]) for r in rows) for c in range(5)]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths))
                         for r in rows)

    def to_kv_lines(self) -> list[str]:
        lines = [f"shared={self.shared}", f"ctr_only={self.ctr_only}",
                 f"cvr_only={self.cvr_only}", f"dead={self.dead}",
                 f"total={self.total}"]
        for i, (s, c, v, d) in enumerate(self.per_layer):
            lines.append(f"layer{i}.shared={s} layer{i}.ctr_only={c} "
                         f"layer{i}.cvr_only={v} layer{i}.dead={d}")
        return lines


def overlap_stats(mask_ctr: TaskMask, mask_cvr: TaskMask) -> MaskOverlapStats:
    """Classify every connection as shared / ctr-only / cvr-only / dead."""
    if len(mask_ctr.layers) != len(mask_cvr.layers):
        raise ShapeError(f"masks have {len(mask_ctr.layers)} vs {len(mask_cvr.layers)} layers")
    per_layer = []
    for a, b in zip(mask_ctr.layers, mask_cvr.layers):
        if a.shape != b.shape:
            raise ShapeError(f"mask layers {a.shape} vs {b.shape}")
        ca, cb = a != 0, b != 0
        per_layer.append((
            int((ca & cb).sum()),
            int((ca & ~cb).sum()),
            int((~ca & cb).sum()),
            int((~ca & ~cb).sum()),
        ))
    totals = [sum(t[i] for t in per_layer) for i in range(4)]
    return MaskOverlapStats(*totals, per_layer=per_layer)


def serialize_mask(mask: TaskMask) -> bytes:
    """Header {magic, version, n_layers, task, round, per-layer rows/cols},
    then row-major bit-packed payloads, little-endian throughout. A task's
    code is its index in ``TASKS``."""
    parts = [MASK_MAGIC,
             struct.pack("<BHBI", MASK_VERSION, len(mask.layers),
                         TASKS.index(mask.task), mask.pruning_round)]
    for m in mask.layers:
        parts.append(struct.pack("<II", *m.shape))
    for m in mask.layers:
        bits = (m.ravel() != 0).astype(np.uint8)
        parts.append(np.packbits(bits, bitorder="little").tobytes())
    return b"".join(parts)


def deserialize_mask(data: bytes) -> TaskMask:
    if len(data) < 12 or data[:4] != MASK_MAGIC:
        raise MaskFormatError("not a mask byte stream (bad magic)")
    version, n_layers, task_code, rnd = struct.unpack_from("<BHBI", data, 4)
    if version != MASK_VERSION:
        raise MaskFormatError(f"unsupported mask version {version}")
    if task_code >= len(TASKS):
        raise MaskFormatError(f"unknown task code {task_code}")
    offset = 12
    shapes = []
    for _ in range(n_layers):
        if offset + 8 > len(data):
            raise MaskFormatError("truncated mask header")
        shapes.append(struct.unpack_from("<II", data, offset))
        offset += 8
    layers = []
    for rows, cols in shapes:
        count = rows * cols
        nbytes = (count + 7) // 8
        if offset + nbytes > len(data):
            raise MaskFormatError("truncated mask payload")
        bits = np.unpackbits(np.frombuffer(data, np.uint8, nbytes, offset),
                             count=count, bitorder="little")
        layers.append(bits.reshape(rows, cols).astype(np.float64))
        offset += nbytes
    if offset != len(data):
        raise MaskFormatError("trailing bytes after mask payload")
    return TaskMask(layers, TASKS[task_code], rnd)


def save_mask(path, mask: TaskMask) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_mask(mask))


def load_mask(path) -> TaskMask:
    with open(path, "rb") as fh:
        return deserialize_mask(fh.read())
