"""Dense layer primitives: Xavier init, affine/ReLU/sigmoid forward-backward, Adam.

Everything is float64 numpy. All randomness goes through an explicit
``numpy.random.Generator`` so that equal seeds give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

DTYPE = np.float64


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; the single entry point for randomness."""
    return np.random.default_rng(int(seed))


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot init on [-b, b] with b = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(DTYPE)


def sigmoid(x):
    """Numerically stable logistic; never overflows."""
    x = np.asarray(x, dtype=DTYPE)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0), written into ``x`` itself; returns ``x``."""
    return np.maximum(x, 0.0, out=x)


def affine_forward(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """inp @ weights + bias, the bias added (over rows) into the matmul's output."""
    if inp.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"affine_forward: input {inp.shape} incompatible with weights {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"affine_forward: bias {bias.shape} incompatible with weights {weights.shape}"
        )
    out = inp @ weights
    out += bias
    return out


def affine_backward(inp: np.ndarray, weights: np.ndarray, d_out: np.ndarray):
    """Gradients of an affine layer: (d_weights, d_bias, d_input)."""
    d_w = inp.T @ d_out
    d_b = d_out.sum(axis=0)
    d_in = d_out @ weights.T
    return d_w, d_b, d_in


def check_views(flat: np.ndarray, blocks) -> None:
    """Raise ShapeError unless ``blocks`` are views of the contiguous 1-D
    float64 vector ``flat``, back to back from its start, covering it."""
    if flat.ndim != 1 or flat.dtype != DTYPE or not flat.flags.c_contiguous:
        raise ShapeError(f"flat parameters must be a contiguous 1-D float64 vector, "
                         f"got {flat.dtype} {flat.shape}")
    base = flat.__array_interface__["data"][0]
    offset = 0
    for i, block in enumerate(blocks):
        if (block.dtype != DTYPE or not block.flags.c_contiguous
                or block.__array_interface__["data"][0] != base + 8 * offset):
            raise ShapeError(f"block {i} {block.shape} is not a view of the flat vector "
                             f"at entry {offset}")
        offset += block.size
    if offset != flat.size:
        raise ShapeError(f"blocks cover {offset} of {flat.size} flat entries")


def _bias_table(beta: float, n: int) -> np.ndarray:
    """``1 - beta ** t`` for t < n by numpy's array pow: every bias
    correction Adam takes, whichever clock it reads. Clocks advance before
    they are read, so entry 0 is never read."""
    return 1.0 - beta ** np.arange(n)


class Adam:
    """Adam over the flat float64 vector of a ``model.ModelParams``, updated
    in place.

    ``params.flat`` holds every entry and ``params.blocks()`` returns views
    of it, back to back; the embedding tables come first, stacked as
    ``params.tables``. The moments ``m`` and ``v`` and the per-entry clocks
    ``t_entry`` share the vector's layout. ``beta1`` and ``beta2`` must lie
    in (0.5, 1).

    One rule: an entry that gets no gradient term this step, or whose gate
    is shut, does not move. Its parameter, both moments and its clock stay
    as they are; that is what lets a task leave the other task's private
    weights bit-identical. Every other entry advances its own clock ``te``
    and takes ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*square(g)`` and
    ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, with ``bc = 1 - b**te``:
    each entry's bias correction counts the steps it took. Every
    ``1 - b**te`` is read from one table made by numpy's array pow
    (``_bias_table``).

    Table rows are lazy: only the rows the gradient names step. A gate-shut
    entry steps too, then gets its old bits back (``step``). An ungated
    block is all open, so its clocks count every step.
    """

    def __init__(self, params, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.5 < beta < 1.0:
                raise ConfigError(f"Adam {name} must lie in (0.5, 1), got {beta!r}")
        blocks = params.blocks()
        check_views(params.flat, blocks)
        self.flat = params.flat
        self.sizes = tuple(b.size for b in blocks)
        self.tables, self.dim = params.tables.size, params.tables.shape[1]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0
        # int32 halves the clocks' memory; no clock exceeds t, and the bias
        # tables it indexes hold 2t floats each, so memory ends first
        self.t_entry = np.zeros(self.flat.shape, dtype=np.int32)
        self._bc1 = self._bc2 = np.empty(0)
        # p, m, v and the clocks over the tables, one record per row
        self._table_rows = [
            (a[:self.tables].view(np.dtype((np.void, a.itemsize * self.dim))), a.dtype)
            for a in (self.flat, self.m, self.v, self.t_entry)]

    def step(self, grads, update_masks=None) -> None:
        """One update from ``grads``, a ``model.Grads`` of this layout: the
        table rows it names (``rows``) with their gradients (``values``),
        and every entry past the tables (``mlp``). Only those are read, so a
        step costs the batch's rows, not the tables. ``update_masks`` is
        None, all blocks ungated, or one entry per block: None for an
        ungated block, or a 0/1 array the size of that block.

        Every given entry steps in place. The gate-shut ones are read out of
        ``flat``, ``m``, ``v`` and ``t_entry`` by flat index before and put
        back after, which is exact: ``_update``'s ops are elementwise and
        correctly rounded, so no entry's result depends on another's."""
        tables, d = self.tables, self.dim
        rows, values, g = grads.rows, grads.values, grads.mlp
        if values.shape != (len(rows), d) or g.size != self.flat.size - tables:
            raise ShapeError(f"Adam.step: table gradient {values.shape} at {len(rows)} "
                             f"rows and {g.size} other entries, for tables of dim {d} "
                             f"and {self.flat.size - tables} other entries")
        shut = self._shut(update_masks)
        self.t += 1
        if len(self._bc1) <= self.t:   # no clock exceeds t; double past it
            n = max(1024, 2 * self.t)
            self._bc1, self._bc2 = _bias_table(self.beta1, n), _bias_table(self.beta2, n)
        state = (self.flat, self.m, self.v, self.t_entry)
        kept = [a.take(shut) for a in state]
        # the named table rows, gathered with their moments and clocks
        part = [records.take(rows).view(dtype) for records, dtype in self._table_rows]
        self._update(*part, values.ravel())
        for (records, _), buf in zip(self._table_rows, part):
            records.put(rows, buf.view(records.dtype))
        self._update(*(a[tables:] for a in state), g)
        for a, old in zip(state, kept):
            a[shut] = old

    def _shut(self, per_block) -> np.ndarray:
        """Flat indices of the entries the per-block gate ``per_block``
        shuts, ascending. Only gated blocks are scanned, so ungated tables
        cost nothing."""
        shut = [np.empty(0, dtype=np.intp)]
        if per_block is None:
            return shut[0]
        if len(per_block) != len(self.sizes):
            raise ShapeError(f"Adam.step: gate has {len(per_block)} blocks, "
                             f"parameters have {len(self.sizes)}")
        start = 0
        for i, (gate, n) in enumerate(zip(per_block, self.sizes)):
            if gate is not None:
                if np.size(gate) != n:
                    raise ShapeError(f"Adam.step: gate {i} has {np.size(gate)} entries, "
                                     f"block has {n}")
                shut.append(np.flatnonzero(np.asarray(gate) == 0) + start)
            start += n
        return np.concatenate(shut)

    def _update(self, p, m, v, te, g) -> None:
        """Adam in place on every entry of parameters ``p``, moments ``m``,
        ``v`` and clocks ``te``, ``g`` being their gradient: each clock
        advances, then indexes the bias-correction tables. The ops and their
        operand order match the class docstring's formulas. Each op (``*``,
        ``+``, ``/``, ``square``, ``sqrt``, ``take``) is elementwise and
        correctly rounded, so an entry's result depends on that entry alone,
        which is what lets ``step`` undo any entry's step exactly."""
        te += 1
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += g * (1.0 - b1)
        v *= b2
        v += np.square(g) * (1.0 - b2)
        upd = m / self._bc1.take(te)
        upd *= self.lr
        den = v / self._bc2.take(te)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        p -= upd
