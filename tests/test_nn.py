import numpy as np
import pytest

from lotshare import nn
from lotshare.errors import ShapeError


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
        with pytest.raises(ValueError):
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


class TestSigmoid:
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


class Flat:
    """Blocks stored back to back in one vector ``flat``, the layout nn.Adam
    updates; iterating yields the block views."""

    def __init__(self, *blocks):
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        self.flat = np.concatenate([b.ravel() for b in blocks])
        ends = np.cumsum([b.size for b in blocks])
        self._views = [self.flat[e - b.size:e].reshape(b.shape)
                       for b, e in zip(blocks, ends)]

    def blocks(self):
        return self._views

    def __iter__(self):
        return iter(self._views)


class TestAdam:
    def test_first_step_hand_value(self):
        p = Flat([[1.0]])
        nn.Adam(p, lr=0.001).step(Flat([[0.5]]))
        # bias-corrected first step: m_hat=g, v_hat=g^2
        assert p.flat[0] == pytest.approx(1.0 - 0.001 * (0.5 / (0.5 + 1e-8)), abs=1e-15)
        assert p.flat[0] == pytest.approx(1.0 - 0.000999998, abs=1e-8)

    def test_zero_grad_fresh_state_is_identity(self):
        p = Flat(nn.make_rng(1).standard_normal((3, 4)))
        before = p.flat.copy()
        nn.Adam(p, lr=0.1).step(Flat(np.zeros((3, 4))))
        assert (p.flat == before).all()

    def test_two_steps_match_scalar_oracle(self):
        p = Flat([[2.0]])
        opt = nn.Adam(p, lr=0.01)
        opt.step(Flat([[0.3]]))
        opt.step(Flat([[0.3]]))
        assert p.flat[0] == pytest.approx(scalar_adam(2.0, [0.3, 0.3], 0.01), abs=1e-15)

    def test_random_sequence_matches_oracle(self):
        rng = nn.make_rng(9)
        p = Flat([[0.7]])
        opt = nn.Adam(p, lr=0.05)
        gs = rng.standard_normal(10)
        for g in gs:
            opt.step(Flat([[g]]))
        assert p.flat[0] == pytest.approx(scalar_adam(0.7, gs, 0.05), rel=1e-12)

    def test_update_mask_freezes_entries(self):
        rng = nn.make_rng(4)
        p = Flat(rng.standard_normal((4, 4)), rng.standard_normal(3))
        w, b = p.blocks()
        gate = (rng.random((4, 4)) < 0.5).astype(float)
        frozen_before = w[gate == 0].copy()
        opt = nn.Adam(p, lr=0.01)
        for _ in range(5):
            opt.step(Flat(rng.standard_normal((4, 4)), rng.standard_normal(3)), [gate, None])
        assert (w[gate == 0] == frozen_before).all()
        m, v = opt.m[:16].reshape(4, 4), opt.v[:16].reshape(4, 4)
        assert (m[gate == 0] == 0).all() and (v[gate == 0] == 0).all()
        assert (m[gate == 1] != 0).all() and (opt.m[16:] != 0).all()
        assert (opt.t_entry[:16].reshape(4, 4) == 5 * gate).all()

    def test_all_ones_gate_equals_ungated(self):
        """One bias-correction flavour: an all-ones gated block and an
        ungated block given the same gradients stay byte-identical."""
        rng = nn.make_rng(0)
        w = rng.standard_normal(2048)
        p = Flat(w, w)
        opt = nn.Adam(p, lr=1e-3)
        for _ in range(50):
            g = rng.standard_normal(2048)
            opt.step(Flat(g, g), [np.ones(2048), None])
        for arr in (p.flat, opt.m, opt.v):
            assert arr[:2048].tobytes() == arr[2048:].tobytes()
        assert (opt.t_entry[:2048] == 50).all()

    def test_shape_mismatch(self):
        opt = nn.Adam(Flat(np.zeros((2, 2))), 0.1)
        with pytest.raises(ShapeError):
            opt.step(Flat(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            opt.step(Flat(np.zeros((2, 2))), [np.ones((2, 3))])
        with pytest.raises(ShapeError):
            opt.step(Flat(np.zeros((2, 2))), [None, None])

    def test_step_count_increments(self):
        opt = nn.Adam(Flat(np.zeros((1, 1))), 0.1)
        for expected in (1, 2, 3):
            opt.step(Flat(np.ones((1, 1))))
            assert opt.t == expected

    def test_blocks_must_be_views_of_flat(self):
        p = Flat(np.zeros((2, 2)), np.zeros(3))
        p._views[1] = np.zeros(3)
        with pytest.raises(ShapeError):
            nn.Adam(p, 0.1)
        p = Flat(np.zeros((2, 2)), np.zeros(3))
        p._views.reverse()
        with pytest.raises(ShapeError):
            nn.Adam(p, 0.1)


class TestUpdateGate:
    def test_split_at_table_boundary(self):
        part = np.array([1.0, 0.0, 1.0])
        gate = nn.UpdateGate([None, np.ones(2), np.zeros(3), part, None], [2, 2, 3, 3, 1])
        assert list(gate)[2] is not None and list(gate)[4] is None
        assert gate.is_open.tolist() == [True] * 4 + [False] * 3 + [True, False, True, True]
        assert gate.split(4)[0] is True     # ungated and open blocks: all open
        assert gate.split(4)[1].tolist() == [False] * 3 + [True, False, True, True]
        head, rest = gate.split(8)          # the boundary cuts the partly open block
        assert head.tolist() == [True] * 4 + [False] * 3 + [True] and rest.tolist() == [False, True, True]
        assert gate.split(9)[1] is True and gate.split(0)[0] is True
        assert nn.UpdateGate([None, None], [2, 3]).split(2) == (True, True)
        shut = nn.UpdateGate([np.zeros(2), np.zeros((1, 3))], [2, 3])
        assert [part.tolist() for part in shut.split(2)] == [[False] * 2, [False] * 3]

    def test_per_block_size_checked(self):
        with pytest.raises(ShapeError):
            nn.UpdateGate([np.ones(3)], [4])
        with pytest.raises(ShapeError):
            nn.UpdateGate([None], [4, 1])
