"""Dense layer primitives: Xavier init, affine/ReLU/sigmoid forward-backward, Adam.

Everything is float64 numpy. All randomness goes through an explicit
``numpy.random.Generator`` so that equal seeds give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DTYPE = np.float64


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; the single entry point for randomness."""
    return np.random.default_rng(int(seed))


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot init on [-b, b] with b = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"xavier_init needs positive dims, got {rows}x{cols}")
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
    return np.maximum(x, 0.0)


def affine_forward(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out = inp @ weights + bias (bias broadcast over rows)."""
    if inp.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"affine_forward: input {inp.shape} incompatible with weights {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"affine_forward: bias {bias.shape} incompatible with weights {weights.shape}"
        )
    return inp @ weights + bias


def affine_backward(inp: np.ndarray, weights: np.ndarray, d_out: np.ndarray):
    """Gradients of an affine layer: (d_weights, d_bias, d_input)."""
    d_w = inp.T @ d_out
    d_b = d_out.sum(axis=0)
    d_in = d_out @ weights.T
    return d_w, d_b, d_in


# Entries per slice of an Adam step: the slice's working arrays stay in L2.
_CHUNK = 32768


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
    """``1 - beta ** t`` for t < n by numpy's array pow, as a gated entry's
    clock takes it. Entry 0 is set to 1.0: only entries that have never
    stepped read it, and those are frozen, so it just keeps their scratch
    arithmetic finite."""
    table = 1.0 - beta ** np.arange(n)
    table[0] = 1.0
    return table


class UpdateGate:
    """Which entries of a flat parameter vector an Adam step may change.

    Built once from one entry per block, in order: ``None`` for an ungated
    block, or a 0/1 array for a gated one. Iterating yields those entries.
    ``chunks`` covers the vector in slices of at most ``_CHUNK`` entries,
    each ``(start, stop, active)``: ``active`` is None in ungated blocks,
    True where a gated slice is all open, and the slice's bool array
    otherwise. Fully closed gated blocks get no slice: nothing in them
    changes.
    """

    def __init__(self, per_block, sizes):
        self.per_block = tuple(per_block)
        self.sizes = tuple(sizes)
        if len(self.per_block) != len(self.sizes):
            raise ShapeError(f"gate has {len(self.per_block)} blocks, "
                             f"parameters have {len(self.sizes)}")
        # entries in the ungated blocks before the first gated one
        self.ungated_prefix = 0
        for gate, n in zip(self.per_block, self.sizes):
            if gate is not None:
                break
            self.ungated_prefix += n
        runs: list[tuple[int, int, object]] = []
        start = 0
        for i, (gate, n) in enumerate(zip(self.per_block, self.sizes)):
            stop = start + n
            active = None
            if gate is not None:
                if np.size(gate) != n:
                    raise ShapeError(f"gate {i} has {np.size(gate)} entries, block has {n}")
                active = np.asarray(gate).ravel() != 0
                active = True if active.all() else (active if active.any() else False)
            if active is not False:
                if runs and runs[-1][1] == start and type(runs[-1][2]) is type(active):
                    first, _, prev = runs.pop()
                    if isinstance(active, np.ndarray):
                        active = np.concatenate([prev, active])
                    start = first
                runs.append((start, stop, active))
            start = stop
        self.chunks = [
            (lo, min(lo + _CHUNK, stop),
             act[lo - start:lo - start + _CHUNK] if isinstance(act, np.ndarray) else act)
            for start, stop, act in runs for lo in range(start, stop, _CHUNK)]

    def __iter__(self):
        return iter(self.per_block)


class Adam:
    """Adam over one flat float64 parameter vector, updated in place.

    ``params`` holds that vector as ``flat`` and returns views of it, back
    to back, from ``blocks()`` (a ``model.ModelParams``). The moments ``m``
    and ``v`` and the per-entry clocks ``t_entry`` share its layout.
    ``beta1`` and ``beta2`` must lie in (0.5, 1): see ``_table_step``.

    Every step advances the step count ``t``. An ungated block updates every
    entry and takes its bias correction from Python's scalar ``b ** t``. A
    gated block updates only the entries whose gate is nonzero, and freezes
    the others completely: parameter, moments and clock. That is what lets
    a task leave the other task's private weights bit-identical. Each open
    entry counts its own steps in ``t_entry`` and takes its bias correction
    from numpy's array pow, read from tables. The two pows can differ in the
    last bit, so each block keeps its flavour, and every entry follows the
    same float operations, in the same order, as a per-block update would.
    """

    def __init__(self, params, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.5 < beta < 1.0:
                raise ValueError(f"Adam {name} must lie in (0.5, 1), got {beta!r}")
        blocks = params.blocks()
        check_views(params.flat, blocks)
        self.flat = params.flat
        self.sizes = tuple(b.size for b in blocks)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0
        self.t_entry: np.ndarray | None = None   # allocated on the first gated step
        self._bc1 = self._bc2 = np.empty(0)
        self._ungated = UpdateGate([None] * len(blocks), self.sizes)
        self._scratch = np.empty((5, min(self.flat.size, _CHUNK)))

    def step(self, grads, update_masks=None) -> None:
        """One update from ``grads``, a ``model.Grads`` of this layout, or
        any object whose ``flat`` holds every entry and which iterates over
        its blocks. ``update_masks`` is None (all blocks ungated), an
        ``UpdateGate``, or a per-block sequence to build one from.

        A compact ``Grads`` (``rows`` set) over ungated tables takes
        ``_table_step``; every other entry takes the chunked ``_update``."""
        gate = self._ungated if update_masks is None else update_masks
        if not isinstance(gate, UpdateGate):
            gate = UpdateGate(gate, self.sizes)
        elif gate.sizes != self.sizes:
            raise ShapeError(f"Adam.step: gate block sizes {gate.sizes} vs {self.sizes}")
        rows = getattr(grads, "rows", None)
        tables = 0 if rows is None else self.flat.size - grads.mlp.size
        if tables < 0 or gate.ungated_prefix < tables:
            tables = 0   # a gated table block, or a layout mismatch: the dense path
        if tables:
            g, values = grads.mlp, grads.values
            if values.ndim != 2 or len(values) != len(rows) or tables % values.shape[1]:
                raise ShapeError(f"Adam.step: table gradient {values.shape} at "
                                 f"{len(rows)} rows for {tables} table entries")
        else:
            g = grads.flat
            if g.shape != self.flat.shape:
                raise ShapeError(f"Adam.step: grads {g.shape} for params {self.flat.shape}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        if gate is not self._ungated:
            if self.t_entry is None:
                self.t_entry = np.zeros(self.flat.shape, dtype=np.int64)
            if len(self._bc1) <= self.t:   # t_entry never exceeds t
                n = max(1024, 2 * self.t)
                self._bc1, self._bc2 = _bias_table(b1, n), _bias_table(b2, n)
        if tables:
            self._table_step(tables, rows, values, bc1, bc2)
        for start, stop, active in gate.chunks:
            if stop > tables:   # a chunk that starts in the tables is ungated there
                start = max(start, tables)
                self._update(slice(start, stop), g[start - tables:stop - tables],
                             active, bc1, bc2)

    def _table_step(self, tables: int, rows, values, bc1, bc2) -> None:
        """Adam on the first ``tables`` entries, all ungated, whose gradient
        is ``values`` at ``rows`` of those entries viewed as (rows, d), and
        +0.0 elsewhere. Bit for bit what ``_update`` gives with the dense
        gradient, in fewer passes: the moments decay over the whole region,
        the gradient terms are added at ``rows`` only, then the ratio runs
        in chunks.

        Leaving out the gradient terms elsewhere is exact. There ``_update``
        computes ``m' = b1*m + 0.0``, which equals ``b1*m`` unless ``b1*m``
        is -0.0. It never is: m starts at +0.0; a rounded sum is -0.0 only
        if both addends are, and ``values`` never holds -0.0; and for
        0.5 < b1 < 1 a nonzero m times b1 never rounds to zero. The same
        holds for v, which is never negative.
        """
        b1, b2 = self.beta1, self.beta2
        m, v = self.m[:tables], self.v[:tables]
        np.multiply(m, b1, out=m)
        np.multiply(v, b2, out=v)
        d = values.shape[1]
        m.reshape(-1, d)[rows] += values * (1.0 - b1)
        v.reshape(-1, d)[rows] += np.square(values) * (1.0 - b2)
        upd, den = self._scratch[:2]
        for lo in range(0, tables, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, tables))
            n = sl.stop - lo
            p = self.flat[sl]
            np.subtract(p, self._ratio(self.m[sl], self.v[sl], bc1, bc2, upd[:n], den[:n]),
                        out=p)

    def _ratio(self, m, v, bc1, bc2, upd, den):
        """``lr * (m/bc1) / (sqrt(v/bc2) + eps)`` into ``upd``, with ``den``
        as scratch; ``den`` may be ``bc2``."""
        np.divide(m, bc1, out=upd)
        np.multiply(upd, self.lr, out=upd)
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        np.add(den, self.eps, out=den)
        return np.divide(upd, den, out=upd)

    def _update(self, sl: slice, g: np.ndarray, active, bc1, bc2) -> None:
        """Adam on one slice, ``g`` being its gradient. The ops and their
        operand order match ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*square(g)`` and
        ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, each rounded as numpy
        rounds it on whole arrays. A partly open slice computes every entry
        in scratch and writes back only the open ones."""
        p, m, v = self.flat[sl], self.m[sl], self.v[sl]
        t1, t2, m_new, v_new, upd = self._scratch[:, :sl.stop - sl.start]
        if active is None or active is True:
            m_new, v_new = m, v
        if active is not None:
            te = self.t_entry[sl]
            if active is True:
                te += 1
            else:
                np.add(te, active, out=te)
            bc1 = np.take(self._bc1, te, out=t1, mode="clip")
            bc2 = np.take(self._bc2, te, out=t2, mode="clip")
        b1, b2 = self.beta1, self.beta2
        np.multiply(m, b1, out=m_new)
        np.multiply(g, 1.0 - b1, out=upd)
        np.add(m_new, upd, out=m_new)
        np.multiply(v, b2, out=v_new)
        np.square(g, out=upd)
        np.multiply(upd, 1.0 - b2, out=upd)
        np.add(v_new, upd, out=v_new)
        self._ratio(m_new, v_new, bc1, bc2, upd, t2)
        if active is None or active is True:
            np.subtract(p, upd, out=p)
            return
        np.subtract(p, upd, out=upd)
        np.putmask(m, active, m_new)
        np.putmask(v, active, v_new)
        np.putmask(p, active, upd)
