"""Dense layer primitives: Xavier init, affine/ReLU/sigmoid forward-backward, Adam.

Everything is float64 numpy. All randomness goes through an explicit
``numpy.random.Generator`` so that equal seeds give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

DTYPE = np.float64

# Adam's fixed constants (Kingma & Ba, 2015); the learning rate is the only setting
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    """Numerically stable logistic; never overflows. With e = exp(-|x|), it
    is 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere (NaN included),
    computed in place. ``minimum(x, -x)`` is -|x| that keeps a NaN's sign."""
    x = np.asarray(x, dtype=DTYPE)
    e = np.negative(x, out=np.empty_like(x))  # an array even for 0-d x, so out= takes it
    np.exp(np.minimum(x, e, out=e), out=e)
    out = np.where(x >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
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


def _bias_table(beta: float, n: int) -> np.ndarray:
    """``1 - beta ** t`` for t < n by numpy's array pow: every bias
    correction Adam takes, whichever clock it reads. Clocks advance before
    they are read, so entry 0 is never read."""
    return 1.0 - beta ** np.arange(n)


class Gate(tuple):
    """The gate of one mask over one params layout: a tuple with one entry
    per block of ``layout``, None for an ungated block or a 0/1 array the
    size of that block; ``bench/tracing.py`` reads these entries. ``shut``
    holds the flat indices of the entries it shuts, ascending, ``intp`` and
    read only, worked out here once. A gate made from arrays that change
    later keeps the ``shut`` it was made with."""

    def __new__(cls, per_block, layout):
        self = super().__new__(cls, per_block)
        spans = layout.spans
        if len(self) != len(spans):
            raise ShapeError(f"Gate: gate has {len(self)} blocks, "
                             f"parameters have {len(spans)}")
        shut = [np.empty(0, dtype=np.intp)]
        for i, (gate, (start, stop, _)) in enumerate(zip(self, spans)):
            if gate is not None:
                if np.size(gate) != stop - start:
                    raise ShapeError(f"Gate: gate {i} has {np.size(gate)} entries, "
                                     f"block has {stop - start}")
                shut.append(np.flatnonzero(np.asarray(gate) == 0) + start)
        self.layout, self.shut = layout, np.concatenate(shut)
        self.shut.flags.writeable = False
        return self


class Adam:
    """Adam over the flat float64 vector of a ``model.ModelParams``, updated
    in place.

    ``params.flat`` holds every entry, and its blocks are read-only views
    of it, made once by the params' constructor and laid out back to back
    by ``params.layout``; the embedding tables come first, stacked as
    ``params.tables``. The moments ``m`` and ``v`` and the per-entry clocks
    ``t_entry`` share the vector's layout. ``b1``, ``b2`` and ``eps`` are the
    fixed ``BETA1``, ``BETA2`` and ``EPS``.

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
    block is all open, so its clocks count every step. Adam keeps no gate:
    each step reads the ``Gate`` it is given, whose shut entries are worked
    out once, when the gate is made.
    """

    def __init__(self, params, lr: float):
        """Zero moments and clocks for ``params``: 20 bytes per entry. A
        MemoryError on the way is a ConfigError that names the entry count."""
        self.flat, self.layout = params.flat, params.layout
        self.tables, self.dim = params.tables.size, params.tables.shape[1]
        self.lr = lr
        try:
            self.m = np.zeros_like(self.flat)
            self.v = np.zeros_like(self.flat)
            # int32 halves the clocks' memory; no clock exceeds t, and the bias
            # tables it indexes hold 2t floats each, so memory ends first
            self.t_entry = np.zeros(self.flat.shape, dtype=np.int32)
        except MemoryError:
            raise ConfigError(f"the Adam state of a model of {self.flat.size} parameters "
                              "does not fit in memory") from None
        self.t = 0
        self._bc1 = self._bc2 = np.empty(0)
        # p, m, v and the clocks over the tables, one record per row
        self._table_rows = [
            (a[:self.tables].view(np.dtype((np.void, a.itemsize * self.dim))), a.dtype)
            for a in (self.flat, self.m, self.v, self.t_entry)]

    def step(self, grads, update_masks: Gate | None = None) -> None:
        """One update from ``grads``, a ``model.Grads`` of this layout: the
        table rows it names (``rows``) with their gradients (``values``),
        and every entry past the tables (``mlp``). Only those are read, so a
        step costs the batch's rows, not the tables. ``update_masks`` is
        None, all entries open, or a ``Gate`` made for this layout, of which
        only ``shut`` is read. A gradient or gate of another layout is a
        ShapeError, raised before any state moves.

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
        if update_masks is None:
            shut = np.empty(0, dtype=np.intp)
        elif update_masks.layout != self.layout:
            raise ShapeError("Adam.step: the gate was made for another parameter layout")
        else:
            shut = update_masks.shut
        self.t += 1
        if len(self._bc1) <= self.t:   # no clock exceeds t; double past it
            n = max(1024, 2 * self.t)
            self._bc1, self._bc2 = _bias_table(BETA1, n), _bias_table(BETA2, n)
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

    def _update(self, p, m, v, te, g) -> None:
        """Adam in place on every entry of parameters ``p``, moments ``m``,
        ``v`` and clocks ``te``, ``g`` being their gradient: each clock
        advances, then indexes the bias-correction tables. The ops and their
        operand order match the class docstring's formulas. Each op (``*``,
        ``+``, ``/``, ``square``, ``sqrt``, ``take``) is elementwise and
        correctly rounded, so an entry's result depends on that entry alone,
        which is what lets ``step`` undo any entry's step exactly."""
        te += 1
        m *= BETA1
        m += g * (1.0 - BETA1)
        v *= BETA2
        v += np.square(g) * (1.0 - BETA2)
        upd = m / self._bc1.take(te)
        upd *= self.lr
        den = v / self._bc2.take(te)
        np.sqrt(den, out=den)
        den += EPS
        upd /= den
        p -= upd
