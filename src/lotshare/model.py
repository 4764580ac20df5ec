"""DLRM-style network: embeddings, feature cross, MLP, sigmoid head.

Every sharing mode uses one MLP with the same parameter layout; the mode
only decides where each task's mask comes from. single_task trains one net
per task, unmasked. layer_share uses fixed masks (``tower_masks``): the
trunk is shared and each task owns one half of the last hidden layer, its
tower. connection_share and neuron_share search their masks by pruning.
Masks apply to the MLP weight matrices only; embeddings and biases are
always fully shared.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import nn
from .errors import (CheckpointFormatError, ConfigError, DataError, FeatureIdError,
                     ShapeError, StateError)

CKPT_MAGIC = b"LTCK"
CKPT_VERSION = 1

# float64 entries one numpy array can hold: its size is under 2**63 bytes
MAX_ENTRIES = 2 ** 60

# layer_share: the last two FC transitions, into and out of the last hidden
# layer, form the per-task towers; everything below is the shared trunk.
TOWER_TRANSITIONS = 2


class Task(str, Enum):
    CTR = "ctr"
    CVR = "cvr"


TASKS = (Task.CTR, Task.CVR)


class SharingMode(str, Enum):
    SINGLE_TASK = "single_task"
    LAYER_SHARE = "layer_share"
    CONNECTION_SHARE = "connection_share"
    NEURON_SHARE = "neuron_share"

    @property
    def prunes(self) -> bool:
        """Whether the mode searches its task masks by pruning."""
        return self in (SharingMode.CONNECTION_SHARE, SharingMode.NEURON_SHARE)


class CrossKind(str, Enum):
    NONE = "none"
    PAIRWISE_DOT = "pairwise_dot"
    PAIRWISE_PRODUCT = "pairwise_product"


def cross_output_width(n_fields: int, embedding_dim: int, cross_kind: CrossKind) -> int:
    """Width of the MLP input produced by the feature-cross layer."""
    flat = n_fields * embedding_dim
    pairs = n_fields * (n_fields - 1) // 2
    kind = CrossKind(cross_kind)
    if kind is CrossKind.NONE:
        return flat
    if kind is CrossKind.PAIRWISE_DOT:
        return flat + pairs
    return flat + pairs * embedding_dim


@dataclass(frozen=True)
class ModelConfig:
    field_cardinalities: tuple[int, ...]
    embedding_dim: int
    mlp_dims: tuple[int, ...]  # includes the input width and the final width 1
    cross_kind: CrossKind
    sharing_mode: SharingMode

    def __post_init__(self):
        object.__setattr__(self, "field_cardinalities", tuple(int(c) for c in self.field_cardinalities))
        object.__setattr__(self, "embedding_dim", int(self.embedding_dim))
        object.__setattr__(self, "mlp_dims", tuple(int(d) for d in self.mlp_dims))
        object.__setattr__(self, "cross_kind", CrossKind(self.cross_kind))
        object.__setattr__(self, "sharing_mode", SharingMode(self.sharing_mode))
        if not self.field_cardinalities or any(c < 1 for c in self.field_cardinalities):
            raise ConfigError(f"field cardinalities must all be >= 1: {self.field_cardinalities}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if len(self.mlp_dims) < 2:
            raise ConfigError("mlp_dims needs at least an input width and an output width")
        for i, width in enumerate(self.mlp_dims):
            if width < 1:
                raise ConfigError(f"MLP width {width} at position {i} of {self.mlp_dims} "
                                  f"must be >= 1")
        expected = cross_output_width(self.n_fields, self.embedding_dim, self.cross_kind)
        if self.mlp_dims[0] != expected:
            raise ConfigError(
                f"mlp_dims[0]={self.mlp_dims[0]} but the cross layer produces width {expected} "
                f"for {self.n_fields} fields, dim {self.embedding_dim}, {self.cross_kind.value}"
            )
        if self.mlp_dims[-1] != 1:
            raise ConfigError(f"final MLP width must be 1, got {self.mlp_dims[-1]}")
        if self.sharing_mode is SharingMode.LAYER_SHARE:
            if len(self.mlp_dims) < TOWER_TRANSITIONS + 2:
                raise ConfigError("layer_share needs at least one trunk transition below the tower")
            if self.mlp_dims[-2] % 2:
                raise ConfigError(f"layer_share splits the last hidden width between the two "
                                  f"task towers, so it must be even: got {self.mlp_dims[-2]}")
        if (size := ParamLayout.of(self).size) >= MAX_ENTRIES:
            raise ConfigError(f"a model of {size} parameters is past the 2**60 entries of "
                              "one float64 array")

    @property
    def n_fields(self) -> int:
        return len(self.field_cardinalities)


@dataclass(frozen=True)
class ParamLayout:
    """Shapes of every parameter block, grouped as ModelParams groups them.

    ``spans`` places them in ``blocks()`` order: embeddings, MLP weights,
    then MLP biases. That is the order of the flat vector and of the
    checkpoint payload. The layout does not depend on the sharing mode.
    """

    embeddings: tuple[tuple[int, ...], ...]
    mlp_weights: tuple[tuple[int, ...], ...]
    mlp_biases: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, cfg: ModelConfig) -> "ParamLayout":
        dims = cfg.mlp_dims
        return cls(
            embeddings=tuple((c, cfg.embedding_dim) for c in cfg.field_cardinalities),
            mlp_weights=tuple(zip(dims, dims[1:])),
            mlp_biases=tuple((d,) for d in dims[1:]),
        )

    @cached_property
    def spans(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """``(start, stop, shape)`` of every block in the flat vector."""
        out, start = [], 0
        for shape in [*self.embeddings, *self.mlp_weights, *self.mlp_biases]:
            stop = start + math.prod(shape)
            out.append((start, stop, shape))
            start = stop
        return tuple(out)

    @property
    def size(self) -> int:
        return self.spans[-1][1]

    @cached_property
    def table_size(self) -> int:
        """Entries of the embedding tables, which come first in the flat vector."""
        return sum(math.prod(shape) for shape in self.embeddings)

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Rows of each field's table; read only."""
        cards = np.array([rows for rows, _ in self.embeddings], dtype=np.intp)
        cards.flags.writeable = False
        return cards

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """Each field's first row in the tables stacked as one (rows, dim)
        array; read only."""
        offsets = np.cumsum(self.cardinalities) - self.cardinalities
        offsets.flags.writeable = False
        return offsets


class _FlatBlocks:
    """Parameter-shaped arrays stored back to back in one contiguous float64
    vector ``flat``, in ``blocks()`` order. The blocks are views of ``flat``,
    made once by the constructor and held read-only: ``embeddings`` (per
    field: (cardinality, dim)), ``mlp_weights`` and ``mlp_biases`` are
    tuples, and they, ``layout`` and ``flat`` cannot be rebound. Write
    through the blocks in place (``w[...] = x``, ``w *= m``)."""

    def __init__(self, layout: ParamLayout, flat: np.ndarray | None = None):
        """Views of ``flat`` (zeros when None) laid out by ``layout``;
        ShapeError unless ``flat`` is a C-contiguous 1-D float64 vector of
        ``layout.size`` entries."""
        flat = np.zeros(layout.size, dtype=nn.DTYPE) if flat is None else flat
        if (flat.shape != (layout.size,) or flat.dtype != nn.DTYPE
                or not flat.flags.c_contiguous):
            raise ShapeError(f"flat vector {flat.dtype} {flat.shape} for a layout of "
                             f"{layout.size} entries: it must be C-contiguous 1-D float64")
        views = iter([flat[start:stop].reshape(shape) for start, stop, shape in layout.spans])
        self._layout, self._flat = layout, flat
        self._groups = tuple(tuple(next(views) for _ in shapes) for shapes in
                             (layout.embeddings, layout.mlp_weights, layout.mlp_biases))

    layout = property(lambda self: self._layout)
    flat = property(lambda self: self._flat)
    embeddings = property(lambda self: self._groups[0])
    mlp_weights = property(lambda self: self._groups[1])
    mlp_biases = property(lambda self: self._groups[2])

    @property
    def tables(self) -> np.ndarray:
        """The embedding tables stacked as one (rows, dim) view of ``flat``."""
        return self.flat[:self.layout.table_size].reshape(-1, self.layout.embeddings[0][1])

    def blocks(self) -> list[np.ndarray]:
        """All arrays in fixed declaration order."""
        return [*self.embeddings, *self.mlp_weights, *self.mlp_biases]


class ModelParams(_FlatBlocks):
    """All trainable weights, plus the frozen rewind snapshot."""

    init_snapshot: "ModelParams | None" = None

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.flat.copy())

    def take_snapshot(self) -> None:
        """Freeze a deep copy of the current weights as the rewind point. A
        MemoryError on the way is a ConfigError that names the parameter count."""
        try:
            self.init_snapshot = self.copy()
        except MemoryError:
            raise ConfigError(f"the rewind snapshot of a model of {self.layout.size} "
                              "parameters does not fit in memory") from None

    def rewind(self) -> None:
        """Restore live weights to the frozen snapshot, bit-exactly."""
        if self.init_snapshot is None:
            raise StateError("rewind called before a snapshot was taken")
        np.copyto(self.flat, self.init_snapshot.flat)


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Xavier-uniform weights, zero biases, deterministic under seed. A
    MemoryError on the way is a ConfigError that names the parameter count."""
    rng = nn.make_rng(seed)
    layout = ParamLayout.of(cfg)
    try:
        params = ModelParams(layout)
        for w in [*params.embeddings, *params.mlp_weights]:
            w[...] = nn.xavier_init(*w.shape, rng)
    except MemoryError:
        raise ConfigError(f"a model of {layout.size} parameters does not fit in "
                          "memory") from None
    return params


def embed(ids: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Row lookup: (n, F) int ids -> ``(emb, rows)``, the (n, F, dim)
    embeddings and each id's row in the stacked tables (``params.tables``).
    An id outside its field's table raises FeatureIdError naming the first
    such field, in field order, and that field's first bad id."""
    ids = np.asarray(ids)
    layout = params.layout
    cards = layout.cardinalities
    if ids.ndim != 2 or ids.shape[1] != len(cards):
        raise ShapeError(f"embed: ids {ids.shape} for {len(cards)} fields")
    bad = (ids < 0) | (ids >= cards)
    if bad.any():
        f = int(np.argmax(bad.any(axis=0)))
        raise FeatureIdError(f"feature id {int(ids[bad[:, f], f][0])} out of range for "
                             f"field {f} (cardinality {cards[f]})")
    rows = ids + layout.row_offsets
    return np.take(params.tables, rows, axis=0), rows


@lru_cache(maxsize=None)
def _cross_tables(F: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for F fields: ``(partner, pcol)``.

    Row t of ``partner`` (F-1, F) holds field k's t-th partner,
    ``(k + 1 + t) % F``, and the same row of ``pcol`` holds the index of the
    pair {k, partner} in the cross output, whose pairs are in
    ``np.triu_indices(F, k=1)`` order. The arrays are shared: read only.
    """
    pi, pj = np.triu_indices(F, k=1)
    pair_of = np.zeros((F, F), dtype=np.intp)
    pair_of[pi, pj] = pair_of[pj, pi] = np.arange(len(pi))
    k = np.arange(F)
    partner = (k[None, :] + 1 + np.arange(F - 1)[:, None]) % F
    pcol = pair_of[k[None, :], partner]
    for a in (partner, pcol):
        a.flags.writeable = False
    return partner, pcol


def feature_cross(emb: np.ndarray, cross_kind: CrossKind) -> np.ndarray:
    """(n, F, d) embeddings -> (n, cross_output_width) MLP input.

    The pairs (i, j), i < j, follow ``np.triu_indices(F, k=1)`` order. Field
    i meets all its later fields in one step over contiguous slices, so no
    pair-indexed copy of ``emb`` is made. The output is bit-identical to the
    gather-based form (``emb[:, pi]`` against ``emb[:, pj]``), which the
    tests keep as the reference.
    """
    n, F, d = emb.shape
    flat = emb.reshape(n, F * d)
    kind = CrossKind(cross_kind)
    if kind is CrossKind.NONE:
        return flat
    if kind is CrossKind.PAIRWISE_DOT:
        pairs = [np.einsum("nd,njd->nj", emb[:, i], emb[:, i + 1:]) for i in range(F - 1)]
    else:
        pairs = [(emb[:, i:i + 1] * emb[:, i + 1:]).reshape(n, -1) for i in range(F - 1)]
    return np.concatenate([flat, *pairs], axis=1)


def _field_major_cross_backward(emb: np.ndarray, d_x: np.ndarray,
                                cross_kind: CrossKind) -> np.ndarray:
    """Gradient through feature_cross, field-major: (n, F, d) embeddings and
    d_x (n, width) -> d_emb (F, d, n), i.e. ``d_emb[k, c, s]`` is the
    gradient of ``emb[s, k, c]``.

    The work runs on field-major copies, ``emb`` as (F, d, n) and the pair
    part of d_x as (pairs, n) (dot) or (pairs, d, n) (product), so every
    elementwise op's inner loop is n samples long, not d.

    Accumulation-order invariant: each ``d_emb[k, c, s]`` starts from its
    flat-part gradient and then receives one product per partner field, in
    the order ``k+1, ..., F-1, 0, ..., k-1``. That is the order in which an
    unbuffered scatter-add (``ufunc.at``) over the pairs ``(k, j>k)`` and
    then ``(i<k, k)`` adds them, one at a time. Step t below adds every
    field's t-th partner term in one whole-array in-place add, so each
    element sees the same float products and additions in the same
    sequence, and the result is bit-identical to the scatter-add
    formulation, transposed.
    """
    n, F, d = emb.shape
    flat_w = F * d
    d_emb = d_x[:, :flat_w].T.reshape(F, d, n).copy()
    kind = CrossKind(cross_kind)
    if kind is CrossKind.NONE:
        return d_emb
    partner, pcol = _cross_tables(F)
    emb_fm = emb.transpose(1, 2, 0).copy()
    if kind is CrossKind.PAIRWISE_DOT:
        g = d_x[:, flat_w:].T.copy()                      # (n_pairs, n)
        for part, col in zip(partner, pcol):
            d_emb += g[col][:, None, :] * emb_fm[part]
    else:
        g = d_x[:, flat_w:].T.reshape(-1, d, n).copy()    # (n_pairs, d, n)
        for part, col in zip(partner, pcol):
            d_emb += g[col] * emb_fm[part]
    return d_emb


@dataclass
class ForwardCache:
    ids: np.ndarray
    rows: np.ndarray                    # the ids' rows in the stacked tables
    emb: np.ndarray
    weights: list[np.ndarray]           # the task's MLP weights, under its mask
    layer_inputs: list[np.ndarray]      # input to each FC transition: the cross, then post-ReLU
    logits: np.ndarray
    task: Task


class Grads:
    """Gradients laid out like ModelParams, in the compact form ``backward``
    returns and ``nn.Adam`` reads: ``rows``, the sorted unique rows of the
    stacked tables (``ModelParams.tables``) that the batch touched,
    ``values`` (len(rows), dim), their gradients, and ``mlp``, every entry
    past the tables. Every other table entry's gradient is 0.0. ``dense``
    holds every block as views of one flat vector, built on first use, and
    iterating yields its blocks in order.
    """

    def __init__(self, layout: ParamLayout, mlp: np.ndarray, rows: np.ndarray,
                 values: np.ndarray):
        self.layout, self.mlp, self.rows, self.values = layout, mlp, rows, values

    @cached_property
    def dense(self) -> _FlatBlocks:
        """Every block, as views of one flat vector."""
        flat = np.zeros(self.layout.size, dtype=nn.DTYPE)
        dense = _FlatBlocks(self.layout, flat)
        flat[self.layout.table_size:] = self.mlp
        dense.tables[self.rows] = self.values
        return dense

    def __iter__(self):
        return iter(self.dense.blocks())


def tower_masks(cfg: ModelConfig) -> dict[Task, list[np.ndarray]]:
    """layer_share's fixed mask layers per task, shaped like the MLP weights.

    The trunk transitions are all ones for both tasks. In the last
    ``TOWER_TRANSITIONS`` transitions each task owns one half of the last
    hidden layer, CTR the first and CVR the second: its columns of the
    transition into that layer and its rows of the transition out of it.
    """
    dims, half = cfg.mlp_dims, cfg.mlp_dims[-2] // 2
    out = {}
    for task, other in zip(TASKS, (slice(half, None), slice(None, half))):
        layers = [np.ones(shape) for shape in zip(dims, dims[1:])]
        layers[-2][:, other] = 0.0
        layers[-1][other] = 0.0
        out[task] = layers
    return out


def _mask_layers(cfg: ModelConfig, task: Task, mask) -> list[np.ndarray] | None:
    """The mask layers ``task`` runs under: those of ``mask``, a
    ``masking.TaskMask``, or when it is None the fixed ``tower_masks`` in
    layer_share mode and no mask otherwise."""
    if mask is None:
        if cfg.sharing_mode is SharingMode.LAYER_SHARE:
            return tower_masks(cfg)[Task(task)]
        return None
    return mask.layers


def check_mask_shapes(weights: list[np.ndarray], layers) -> None:
    """ShapeError unless the mask ``layers`` match the MLP ``weights`` one to one."""
    if len(weights) != len(layers):
        raise ShapeError(f"mask has {len(layers)} layers, params have {len(weights)}")
    for w, m in zip(weights, layers):
        if w.shape != m.shape:
            raise ShapeError(f"mask layer {m.shape} vs weight {w.shape}")


def task_weights(params: ModelParams, cfg: ModelConfig, task: Task,
                 mask=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weights and biases of ``task``'s MLP. Its mask (see
    ``_mask_layers``) multiplies each weight matrix elementwise; embeddings
    and biases are never masked."""
    if mask is not None and cfg.sharing_mode is SharingMode.SINGLE_TASK:
        raise ConfigError(f"mask supplied in {cfg.sharing_mode.value} mode")
    layers = _mask_layers(cfg, task, mask)
    weights, biases = params.mlp_weights, params.mlp_biases
    if layers is None:
        return weights, biases
    check_mask_shapes(weights, layers)
    return [w * m for w, m in zip(weights, layers)], biases


def front(ids: np.ndarray, params: ModelParams, cfg: ModelConfig
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of the forward pass both tasks share: ``(emb, rows, x)``,
    ``embed``'s output and the feature cross of ``emb``, the MLP input."""
    emb, rows = embed(ids, params)
    return emb, rows, feature_cross(emb, cfg.cross_kind)


def mlp_forward(x: np.ndarray, weights: list[np.ndarray], biases: list[np.ndarray]):
    """One task's MLP on the cross output ``x``, each hidden layer's bias and
    ReLU written into its matmul's output: ``(preds, logits, layer_inputs)``."""
    layer_inputs = []
    h = x
    for li, (w, b) in enumerate(zip(weights, biases)):
        layer_inputs.append(h)
        h = nn.affine_forward(h, w, b)
        if li < len(weights) - 1:
            nn.relu(h)
    logits = h[:, 0]
    # keep predictions in the open interval even at saturated logits
    preds = np.clip(nn.sigmoid(logits), np.finfo(np.float64).tiny,
                    np.nextafter(1.0, 0.0))
    return preds, logits, layer_inputs


def forward(ids: np.ndarray, params: ModelParams, cfg: ModelConfig, task: Task,
            mask=None, want_cache: bool = False):
    """Predictions in (0,1) for a batch of feature-id rows: ``front``, then
    the MLP of ``task_weights`` under ``mask``."""
    task = Task(task)
    weights, biases = task_weights(params, cfg, task, mask)
    emb, rows, x = front(ids, params, cfg)
    preds, logits, layer_inputs = mlp_forward(x, weights, biases)
    if not want_cache:
        return preds
    cache = ForwardCache(ids=np.asarray(ids), rows=rows, emb=emb, weights=weights,
                         layer_inputs=layer_inputs, logits=logits, task=task)
    return preds, cache


def _field_major_table_grads(rows: np.ndarray, d_emb: np.ndarray,
                             n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter the field-major d_emb (F, d, n) onto the rows (n, F) of the
    stacked tables, which have ``n_rows`` rows, compactly: ``(touched,
    values)``, the sorted unique rows and their (len(touched), d) gradients.

    One ``np.bincount`` over the compacted bins, laid out like d_emb in
    (field, dim, sample) order: element (f, c, s) goes to bin
    ``slot * d + c``, ``slot`` being row ``rows[s, f]``'s place in
    ``touched``. bincount starts every bin at 0.0 and adds its weights in
    input order. Every row of the stacked tables belongs to exactly one
    field, so all of a bin's terms share f and c and arrive in sample
    order, which is what a scatter-add (``ufunc.at``) into a zeroed table
    does: each row's bits are the same. No sum is -0.0, since 0.0 + -0.0 is
    0.0: ``nn.Adam`` relies on that. rows must be in range, which ``embed``
    checks.
    """
    d = d_emb.shape[1]
    seen = np.zeros(n_rows, dtype=bool)
    seen[rows] = True
    touched = np.flatnonzero(seen)
    slot = np.empty(n_rows, dtype=np.intp)
    slot[touched] = np.arange(len(touched))
    # a C-contiguous (F, n) index gives C-contiguous bins, which ravel as a view
    bins = (slot[rows.T.copy()] * d)[:, None, :] + np.arange(d)[:, None]
    values = np.bincount(bins.ravel(), weights=d_emb.ravel(), minlength=len(touched) * d)
    return touched, values.reshape(-1, d)


def backward(d_logits: np.ndarray, cache: ForwardCache, params: ModelParams,
             cfg: ModelConfig, mask=None) -> Grads:
    """Gradients of a scalar loss given d loss / d logit per sample.

    The MLP runs on the masked weights that ``forward`` cached; ``mask``,
    the one ``forward`` got, gates their gradients. Each ReLU gate reads
    the layer output, ``relu(z) > 0``, true exactly when ``z > 0`` (for NaN
    and -0.0 too). The table gradient comes back compact (see ``Grads``).
    From the cross backward to the table gradient the embedding gradient
    stays field-major, (F, d, n), so the inner loops run over samples. It
    is bit-identical to a formulation with scatter-adds (``ufunc.at``):
    ``_field_major_cross_backward`` adds each field's partner terms in the
    order the scatter-add would, and ``_field_major_table_grads`` sums each
    table row in sample order from 0.0, as a scatter-add into a zeroed
    table would, because each row belongs to one field. Any change here
    must keep both orders, or checkpoints and reports stop being
    byte-identical across versions.
    """
    if cache is None or not cache.layer_inputs:
        raise StateError("backward called without a cached forward pass")
    layers = _mask_layers(cfg, cache.task, mask)
    weights = cache.weights

    d_out = d_logits[:, None]
    d_ws, d_bs = [], []   # in blocks() order
    for li in range(len(weights) - 1, -1, -1):
        if li < len(weights) - 1:
            d_out = d_out * (cache.layer_inputs[li + 1] > 0)
        d_w, d_b, d_out = nn.affine_backward(cache.layer_inputs[li], weights[li], d_out)
        if layers is not None:
            d_w *= layers[li]  # masked connections get exactly zero gradient
        d_ws.insert(0, d_w.ravel())
        d_bs.insert(0, d_b)

    d_emb = _field_major_cross_backward(cache.emb, d_out, cfg.cross_kind)
    mlp = np.concatenate(d_ws + d_bs)
    mlp += 0.0   # g + 0.0 is 0.0 + g to the bit: a sum onto zeros, so -0.0 becomes +0.0
    rows, values = _field_major_table_grads(cache.rows, d_emb, len(params.tables))
    return Grads(params.layout, mlp, rows, values)


def _ckpt_header(cfg: ModelConfig) -> bytes:
    """The fields of ``cfg`` as sorted-key JSON; enums as their values."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Binary checkpoint: magic, version, config JSON, then the flat vector
    as 64-bit LE floats, i.e. every block in ``blocks()`` order."""
    header = _ckpt_header(cfg)
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams]:
    """The config and params that ``save_checkpoint`` wrote to ``path``.
    CheckpointFormatError for anything else, such as a header that is not
    the JSON ``save_checkpoint`` writes for the ModelConfig it builds. A
    MemoryError on the way is a DataError that names the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 12 or raw[:4] != CKPT_MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint file")
        version, hlen = struct.unpack_from("<II", raw, 4)
        if version != CKPT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
        header = raw[12:12 + hlen]
        try:
            cfg = ModelConfig(**json.loads(header.decode("utf-8")))
            if _ckpt_header(cfg) != header:   # such as "4" or 4.0 for an int
                raise ValueError(f"not the header of {cfg}")
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise CheckpointFormatError(f"{path}: bad checkpoint header: {exc}") from exc
        layout = ParamLayout.of(cfg)
        payload = len(raw) - 12 - hlen
        if payload < layout.size * 8:
            raise CheckpointFormatError(f"{path}: truncated checkpoint")
        if payload > layout.size * 8:
            raise CheckpointFormatError(f"{path}: trailing bytes in checkpoint")
        flat = np.frombuffer(raw, dtype="<f8", count=layout.size, offset=12 + hlen)
        return cfg, ModelParams(layout, flat.astype(nn.DTYPE))
    except MemoryError:
        raise DataError(f"{path}: the checkpoint does not fit in memory") from None
