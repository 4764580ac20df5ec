import numpy as np
import pytest

from lotshare import model, nn
from lotshare.errors import ShapeError
from lotshare.masking import TaskMask
from lotshare.model import Task

from test_flat_params import dense_grads


def naive_matmul(a, w, b):
    out = np.zeros((a.shape[0], w.shape[1]))
    for i in range(a.shape[0]):
        for j in range(w.shape[1]):
            s = b[j]
            for k in range(a.shape[1]):
                s += a[i, k] * w[k, j]
            out[i, j] = s
    return out


class TestXavier:
    def test_single_value_bound(self):
        m = nn.xavier_init(1, 1, nn.make_rng(7))
        assert abs(m[0, 0]) <= np.sqrt(3.0)

    def test_bound_large(self):
        m = nn.xavier_init(512, 256, nn.make_rng(3))
        assert np.abs(m).max() <= np.sqrt(6.0 / 768)

    def test_deterministic(self):
        a = nn.xavier_init(5, 7, nn.make_rng(42))
        b = nn.xavier_init(5, 7, nn.make_rng(42))
        assert (a == b).all()

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeError, match="xavier_init needs positive dims, got 0x3"):
            nn.xavier_init(0, 3, nn.make_rng(0))


class TestAffine:
    def test_hand_value(self):
        out = nn.affine_forward(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]),
                                np.array([0.0]))
        assert out == np.array([[3.0]])

    def test_zero_input_passes_bias(self):
        out = nn.affine_forward(np.zeros((1, 2)), np.ones((2, 1)), np.array([5.0]))
        assert out == np.array([[5.0]])

    def test_matches_naive_oracle(self):
        rng = nn.make_rng(0)
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        np.testing.assert_allclose(nn.affine_forward(a, w, b),
                                   naive_matmul(a, w, b), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n,k,m", [(1, 1, 1), (2, 3, 4), (8, 8, 8), (5, 8, 2)])
    def test_all_small_shapes_exact(self, n, k, m):
        # integer-valued entries: both accumulation orders are exact in f64
        rng = nn.make_rng(n * 100 + k * 10 + m)
        a = rng.integers(-8, 9, (n, k)).astype(float)
        w = rng.integers(-8, 9, (k, m)).astype(float)
        b = rng.integers(-8, 9, m).astype(float)
        assert np.array_equal(nn.affine_forward(a, w, b), naive_matmul(a, w, b))

    def test_shape_error_names_both(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(4, 2\)"):
            nn.affine_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))


def gather_sigmoid(x):
    """Reference: the sigmoid by boolean gathers that nn.sigmoid replaced,
    ``1 / (1 + exp(-x))`` on the entries x >= 0 and ``exp(x) / (1 +
    exp(x))`` on the rest."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.8, -709.8, 745.0, -745.0,
                 5e-324, -5e-324, 1e308, -1e308]


class TestSigmoid:
    @pytest.mark.parametrize("n", [1, 7, 256, 50_000])
    def test_bits_match_gather_reference(self, n):
        rng = nn.make_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        assert nn.sigmoid(x).tobytes() == gather_sigmoid(x).tobytes()
        grid = np.resize(x, (3, n))[:, ::2].T   # 2-D and strided
        assert nn.sigmoid(grid).tobytes() == gather_sigmoid(grid).tobytes()

    def test_edge_values_match_gather_reference(self):
        x = np.array(SIGMOID_EDGES)
        assert nn.sigmoid(x).tobytes() == gather_sigmoid(x).tobytes()
        for v in SIGMOID_EDGES:   # Python floats and 0-d arrays give Python floats
            for arg in (v, np.array(v)):
                got = nn.sigmoid(arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(gather_sigmoid(v)).tobytes()

    def test_leaves_input_alone(self):
        x = np.array(SIGMOID_EDGES)
        before = x.tobytes()
        nn.sigmoid(x)
        assert x.tobytes() == before

    def test_zero(self):
        assert nn.sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        # (1 - 1e-20, 1) holds no representable double; assert saturation
        with np.errstate(over="raise"):
            v = nn.sigmoid(50.0)
            assert 1 - 1e-12 < v <= 1.0
            assert 0.0 <= nn.sigmoid(-1000.0) < 1e-300

    def test_symmetry(self):
        for x in [0.1, 1.7, 9.0, 33.0]:
            assert nn.sigmoid(-x) == pytest.approx(1 - nn.sigmoid(x), abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-10, 10, 101)
        ys = nn.sigmoid(xs)
        assert (np.diff(ys) > 0).all()


def scalar_adam(p, g_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam oracle."""
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p = p - lr * mh / (np.sqrt(vh) + eps)
    return p


def params_of(table, *rest):
    """A ``model.ModelParams`` holding these values: the embedding table
    ``table`` and then the blocks ``rest`` as MLP weights."""
    blocks = [np.asarray(b, dtype=float) for b in (table, *rest)]
    layout = model.ParamLayout(embeddings=(blocks[0].shape,),
                               mlp_weights=tuple(b.shape for b in blocks[1:]), mlp_biases=())
    return model.ModelParams(layout, np.concatenate([b.ravel() for b in blocks]))


def grads_of(params, *blocks):
    """The gradient ``blocks``, one per block of ``params``, in the compact
    form, naming every table row."""
    return dense_grads(params.layout, np.concatenate([np.ravel(b) for b in blocks]))


class TestAdam:
    def test_first_step_hand_value(self):
        p = params_of([[1.0]])
        nn.Adam(p, lr=0.001).step(grads_of(p, [[0.5]]))
        # bias-corrected first step: m_hat=g, v_hat=g^2
        assert p.flat[0] == pytest.approx(1.0 - 0.001 * (0.5 / (0.5 + 1e-8)), abs=1e-15)
        assert p.flat[0] == pytest.approx(1.0 - 0.000999998, abs=1e-8)

    def test_zero_grad_fresh_state_is_identity(self):
        p = params_of(nn.make_rng(1).standard_normal((3, 4)))
        before = p.flat.copy()
        nn.Adam(p, lr=0.1).step(grads_of(p, np.zeros((3, 4))))
        assert (p.flat == before).all()

    def test_two_steps_match_scalar_oracle(self):
        p = params_of([[2.0]])
        opt = nn.Adam(p, lr=0.01)
        opt.step(grads_of(p, [[0.3]]))
        opt.step(grads_of(p, [[0.3]]))
        assert p.flat[0] == pytest.approx(scalar_adam(2.0, [0.3, 0.3], 0.01), abs=1e-15)

    def test_random_sequence_matches_oracle(self):
        rng = nn.make_rng(9)
        p = params_of([[0.7]])
        opt = nn.Adam(p, lr=0.05)
        gs = rng.standard_normal(10)
        for g in gs:
            opt.step(grads_of(p, [[g]]))
        assert p.flat[0] == pytest.approx(scalar_adam(0.7, gs, 0.05), rel=1e-12)

    def test_update_mask_freezes_entries(self):
        """A shut entry keeps its parameter, moments and clock, in a table
        and past it."""
        rng = nn.make_rng(4)
        p = params_of(*(rng.standard_normal(shape) for shape in ((4, 4), (4, 4), 3)))
        gate = (rng.random((4, 4)) < 0.5).astype(float)
        frozen_before = [b[gate == 0].copy() for b in p.blocks()[:2]]
        opt = nn.Adam(p, lr=0.01)
        for _ in range(5):
            opt.step(grads_of(p, *(rng.standard_normal(b.shape) for b in p.blocks())),
                     nn.Gate([gate, gate, None], p.layout))
        for i, (b, before) in enumerate(zip(p.blocks(), frozen_before)):
            span = slice(16 * i, 16 * i + 16)
            m, v = opt.m[span].reshape(4, 4), opt.v[span].reshape(4, 4)
            assert (b[gate == 0] == before).all()
            assert (m[gate == 0] == 0).all() and (v[gate == 0] == 0).all()
            assert (m[gate == 1] != 0).all()
            assert (opt.t_entry[span].reshape(4, 4) == 5 * gate).all()
        assert (opt.m[32:] != 0).all() and (opt.t_entry[32:] == 5).all()

    def test_all_ones_gate_equals_ungated(self):
        """One bias-correction flavour: all-ones gated blocks, in a table and
        past it, and an ungated block given the same gradients stay
        byte-identical."""
        rng = nn.make_rng(0)
        w = rng.standard_normal(2048)
        p = params_of(w.reshape(-1, 1), w, w)
        opt = nn.Adam(p, lr=1e-3)
        gate = nn.Gate([np.ones((2048, 1)), np.ones(2048), None], p.layout)
        for _ in range(50):
            g = rng.standard_normal(2048)
            opt.step(grads_of(p, g, g, g), gate)
        for arr in (p.flat, opt.m, opt.v):
            assert arr[:2048].tobytes() == arr[2048:4096].tobytes() == arr[4096:].tobytes()
        assert (opt.t_entry == 50).all()

    def test_shape_mismatch(self):
        p = params_of(np.zeros((2, 2)), np.zeros(3))
        opt = nn.Adam(p, 0.1)
        with pytest.raises(ShapeError):
            opt.step(model.Grads(p.layout, np.zeros(4), np.arange(2), np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            opt.step(model.Grads(p.layout, np.zeros(3), np.arange(2), np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            opt.step(model.Grads(p.layout, np.zeros(3), np.arange(2), np.zeros((3, 2))))

    def test_step_count_increments(self):
        p = params_of(np.zeros((1, 1)))
        opt = nn.Adam(p, 0.1)
        for expected in (1, 2, 3):
            opt.step(grads_of(p, np.ones((1, 1))))
            assert opt.t == expected



class TestAdamGate:
    """``Adam.step``'s gate: None, or an ``nn.Gate`` with one entry per
    block, each None or a 0/1 array the size of its block."""

    def _opt(self):
        p = params_of(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros(1))
        return p, nn.Adam(p, 0.1)

    @pytest.mark.parametrize("blocks", [0, 1, 2, 4])
    def test_block_count_checked(self, blocks):
        p, _ = self._opt()
        with pytest.raises(ShapeError, match=f"gate has {blocks} blocks, parameters have 3"):
            nn.Gate([None] * blocks, p.layout)

    def test_block_size_checked(self):
        p, _ = self._opt()
        for block, gate in [(0, np.ones(3)), (1, np.ones((3, 2, 2))), (2, np.ones(2)),
                            (1, np.ones(0))]:
            gates = [None] * 3
            gates[block] = gate
            with pytest.raises(ShapeError, match=f"gate {block} has {gate.size} entries"):
                nn.Gate(gates, p.layout)

    def test_table_gate_applies_per_entry(self):
        """A table gate shuts single entries of a named row, and a shut
        table block stays put while the rest steps."""
        p, opt = self._opt()
        grads = grads_of(p, np.ones(4), np.ones(6), np.ones(1))
        opt.step(grads, nn.Gate([np.array([[1.0, 0.0], [0.0, 1.0]]), None, None], p.layout))
        assert (opt.t_entry == [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]).all()
        assert (p.tables != 0).tolist() == [[True, False], [False, True]]
        opt.step(grads, nn.Gate([np.zeros((2, 2)), np.ones((2, 3)), None], p.layout))
        assert (opt.t_entry == [1, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2]).all()

    def test_gate_of_another_layout_is_refused(self):
        """A gate made for another layout is a ShapeError before any state
        moves, even when its blocks would fit."""
        p, opt = self._opt()
        opt.step(grads_of(p, np.ones(4), np.ones(6), np.ones(1)))
        before = [opt.t] + [a.tobytes() for a in (opt.flat, opt.m, opt.v, opt.t_entry)]
        other = params_of(np.zeros((1, 4)), np.zeros((3, 2)), np.zeros(1))
        for gate in (nn.Gate([None] * 3, other.layout),
                     nn.Gate([None, np.ones((3, 2)), None], other.layout)):
            with pytest.raises(ShapeError, match="another parameter layout"):
                opt.step(grads_of(p, np.ones(4), np.ones(6), np.ones(1)), gate)
        assert [opt.t] + [a.tobytes() for a in (opt.flat, opt.m, opt.v, opt.t_entry)] == before


class TestGate:
    """``nn.Gate.shut`` is the flat index of every entry the gate shuts."""

    @staticmethod
    def _oracle(gate, layout):
        """``np.flatnonzero`` of the concatenated blocks, None read as all ones."""
        return np.flatnonzero(np.concatenate(
            [np.ones(stop - start) if g is None else np.ravel(g)
             for g, (start, stop, _) in zip(gate, layout.spans)]) == 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_shut_matches_oracle(self, seed):
        """Random table and MLP gates, some blocks ungated, at several
        densities."""
        rng = nn.make_rng(seed)
        shapes = [(rng.integers(1, 6), 2), (2, rng.integers(1, 5)), (rng.integers(1, 4),)]
        p = params_of(*(np.zeros(s) for s in shapes))
        for density in (0.1, 0.5, 0.9):
            gate = [(rng.random(s) < density).astype(float) if rng.random() < 0.7 else None
                    for s in shapes]
            shut = nn.Gate(gate, p.layout).shut
            assert np.array_equal(shut, self._oracle(gate, p.layout))

    @pytest.mark.parametrize("fill", ["zeros", "ones", "none"])
    def test_uniform_gates(self, fill):
        p = params_of(np.zeros((3, 2)), np.zeros((2, 4)), np.zeros(5))
        make = {"zeros": np.zeros, "ones": np.ones, "none": lambda shape: None}[fill]
        gate = [make(b.shape) for b in p.blocks()]
        shut = nn.Gate(gate, p.layout).shut
        assert np.array_equal(shut, self._oracle(gate, p.layout))
        assert shut.size == (p.layout.size if fill == "zeros" else 0)

    def test_shut_is_ascending_intp_read_only(self):
        rng = nn.make_rng(3)
        p = params_of(np.zeros((4, 3)), np.zeros((3, 5)), np.zeros(6))
        gate = nn.Gate([(rng.random(b.shape) < 0.5).astype(float) for b in p.blocks()],
                       p.layout)
        assert gate.shut.dtype == np.intp and gate.shut.size > 0
        assert (np.diff(gate.shut) > 0).all()
        assert not gate.shut.flags.writeable
        with pytest.raises(ValueError):
            gate.shut[0] = 0
        assert isinstance(gate, tuple) and len(gate) == 3 and gate.layout is p.layout
