import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import model, nn, training
from lotshare.errors import CheckpointFormatError, ConfigError, DataError, ShapeError
from lotshare.masking import TaskMask
from lotshare.model import (CrossKind, ModelConfig, SharingMode, Task,
                            cross_output_width)
from lotshare.training import predict_tasks


def small_config(n_fields=3, dim=4, hidden=(6, 4), mode=SharingMode.CONNECTION_SHARE,
                 cross=CrossKind.PAIRWISE_DOT, cards=None):
    cards = cards or (5,) * n_fields
    dims = (cross_output_width(len(cards), dim, cross), *hidden, 1)
    return ModelConfig(cards, dim, dims, cross, mode)


# any JSON value, NaN and infinities included, as json.loads reads them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids,
                                                            max_size=4),
    max_leaves=8)


def random_ids(cfg, n, seed=0):
    rng = nn.make_rng(seed)
    return np.stack([rng.integers(0, c, n) for c in cfg.field_cardinalities], axis=1)


class TestConfig:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig((5, 5), 4, (99, 8, 1), CrossKind.PAIRWISE_DOT,
                        SharingMode.CONNECTION_SHARE)

    @pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3, 4)])
    def test_hidden_width_below_one_rejected(self, hidden):
        bad = next(w for w in hidden if w < 1)
        with pytest.raises(ConfigError, match=f"MLP width {bad} at position"):
            ModelConfig((5, 5), 4, (cross_output_width(2, 4, CrossKind.PAIRWISE_DOT),
                                    *hidden, 1), CrossKind.PAIRWISE_DOT,
                        SharingMode.CONNECTION_SHARE)

    def test_cross_widths(self):
        assert cross_output_width(3, 4, CrossKind.NONE) == 12
        assert cross_output_width(3, 4, CrossKind.PAIRWISE_DOT) == 15
        assert cross_output_width(3, 4, CrossKind.PAIRWISE_PRODUCT) == 24

    def test_json_round_trip(self):
        cfg = small_config()
        assert ModelConfig(**json.loads(model._ckpt_header(cfg))) == cfg


class TestEmbed:
    def test_zero_row_lookup(self):
        cfg = small_config()
        p = model.init_params(cfg, 1)
        p.embeddings[1][2, :] = 0.0
        ids = np.array([[0, 2, 0]])
        emb, rows = model.embed(ids, p)
        assert (emb[0, 1] == 0).all()
        assert rows.tolist() == [[0, cfg.field_cardinalities[0] + 2,
                                  sum(cfg.field_cardinalities[:2])]]

    def test_equal_ids_equal_embeddings(self):
        cfg = small_config()
        p = model.init_params(cfg, 1)
        ids = np.array([[1, 2, 3], [1, 2, 3]])
        emb, _ = model.embed(ids, p)
        assert (emb[0] == emb[1]).all()

    def test_out_of_range_names_field_and_id(self):
        cfg = small_config()
        p = model.init_params(cfg, 1)
        with pytest.raises(IndexError, match=r"id 9.*field 2"):
            model.embed(np.array([[0, 0, 9]]), p)

    def test_out_of_range_is_data_error(self):
        cfg = small_config()
        p = model.init_params(cfg, 1)
        with pytest.raises(DataError, match=r"id -1.*field 0"):
            model.embed(np.array([[-1, 0, 0]]), p)


class TestFeatureCross:
    def test_single_field_no_pairs(self):
        emb = nn.make_rng(0).standard_normal((2, 1, 4))
        for kind in CrossKind:
            out = model.feature_cross(emb, kind)
            assert (out == emb.reshape(2, 4)).all()

    def test_orthogonal_dot(self):
        emb = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        out = model.feature_cross(emb, CrossKind.PAIRWISE_DOT)
        assert (out == np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])).all()

    def test_pairwise_product_width(self):
        emb = nn.make_rng(1).standard_normal((5, 3, 4))
        out = model.feature_cross(emb, CrossKind.PAIRWISE_PRODUCT)
        assert out.shape == (5, 24)  # 3*4 flat + C(3,2)=3 pairs of width 4


class TestForward:
    def test_all_ones_mask_bit_identical(self):
        cfg = small_config()
        p = model.init_params(cfg, 2)
        ids = random_ids(cfg, 10, 3)
        mask = TaskMask.all_ones(p.mlp_weights, Task.CTR)
        assert (model.forward(ids, p, cfg, Task.CTR, mask=mask)
                == model.forward(ids, p, cfg, Task.CTR)).all()

    def test_zero_final_layer_gives_half(self):
        cfg = small_config()
        p = model.init_params(cfg, 2)
        layers = [np.ones_like(w) for w in p.mlp_weights]
        layers[-1][:] = 0.0
        mask = TaskMask(layers, Task.CTR)
        preds = model.forward(random_ids(cfg, 7, 1), p, cfg, Task.CTR, mask=mask)
        assert (preds == 0.5).all()

    def test_masked_equals_weight_zeroing_oracle(self):
        cfg = small_config()
        p = model.init_params(cfg, 5)
        rng = nn.make_rng(6)
        mask = TaskMask([(rng.random(w.shape) < 0.6).astype(float)
                         for w in p.mlp_weights], Task.CVR)
        ids = random_ids(cfg, 20, 7)
        masked = model.forward(ids, p, cfg, Task.CVR, mask=mask)
        zeroed = p.copy()
        for w, m in zip(zeroed.mlp_weights, mask.layers):
            w *= m
        oracle = model.forward(ids, zeroed, cfg, Task.CVR)
        assert (masked == oracle).all()

    def test_predictions_open_interval(self):
        cfg = small_config()
        p = model.init_params(cfg, 8)
        p.mlp_biases[-1][:] = 100.0  # saturate
        preds = model.forward(random_ids(cfg, 5, 0), p, cfg, Task.CTR)
        assert ((preds > 0) & (preds < 1)).all()

    def test_mask_rejected_in_single_task(self):
        cfg = small_config(mode=SharingMode.SINGLE_TASK)
        p = model.init_params(cfg, 0)
        mask = TaskMask.all_ones(p.mlp_weights, Task.CTR)
        with pytest.raises(ConfigError):
            model.forward(random_ids(cfg, 2, 0), p, cfg, Task.CTR, mask=mask)

    def test_mask_shape_mismatch(self):
        cfg = small_config()
        p = model.init_params(cfg, 0)
        mask = TaskMask([np.ones((2, 2)) for _ in p.mlp_weights], Task.CTR)
        with pytest.raises(ShapeError):
            model.forward(random_ids(cfg, 2, 0), p, cfg, Task.CTR, mask=mask)


class TestLayerShare:
    def test_cvr_tower_perturbation_leaves_ctr(self):
        cfg = small_config(hidden=(8, 6, 4), mode=SharingMode.LAYER_SHARE)
        p = model.init_params(cfg, 3)
        ids = random_ids(cfg, 10, 4)
        before = model.forward(ids, p, cfg, Task.CTR)
        cvr_before = model.forward(ids, p, cfg, Task.CVR)
        # the CVR tower: the second half of the last hidden layer, its
        # incoming columns, outgoing rows and biases
        p.mlp_weights[-2][:, 2:] += 10.0
        p.mlp_weights[-1][2:] += 10.0
        p.mlp_biases[-2][2:] += 10.0
        after = model.forward(ids, p, cfg, Task.CTR)
        assert (before == after).all()
        assert not (model.forward(ids, p, cfg, Task.CVR) == cvr_before).all()
        assert not (model.forward(ids, p, cfg, Task.CVR)
                    == model.forward(ids, p, cfg, Task.CTR)).all()

    def test_tower_masks(self):
        cfg = small_config(hidden=(8, 6, 4), mode=SharingMode.LAYER_SHARE)
        masks = model.tower_masks(cfg)
        p = model.init_params(cfg, 3)
        for ti, task in enumerate((Task.CTR, Task.CVR)):
            layers = masks[task]
            assert [m.shape for m in layers] == [w.shape for w in p.mlp_weights]
            assert all((m == 1.0).all() for m in layers[:-2])
            own = np.zeros(4)
            own[2 * ti:2 * ti + 2] = 1.0
            assert (layers[-2] == own[None, :]).all()
            assert (layers[-1] == own[:, None]).all()
        # mask=None resolves to the tower masks in forward and backward
        ids = random_ids(cfg, 10, 4)
        preds, cache = model.forward(ids, p, cfg, Task.CVR, want_cache=True)
        explicit = TaskMask(masks[Task.CVR], Task.CVR)
        assert preds.tobytes() == model.forward(ids, p, cfg, Task.CVR, mask=explicit).tobytes()
        d = np.linspace(-1.0, 1.0, 10)
        assert (model.backward(d, cache, p, cfg).dense.flat.tobytes()
                == model.backward(d, cache, p, cfg, mask=explicit).dense.flat.tobytes())

    def test_odd_last_width_rejected(self):
        small_config(hidden=(8, 5, 4), mode=SharingMode.LAYER_SHARE)  # only the last splits
        for mode in SharingMode:
            if mode is not SharingMode.LAYER_SHARE:
                small_config(hidden=(8, 6, 3), mode=mode)
        with pytest.raises(ConfigError, match="must be even: got 3"):
            small_config(hidden=(8, 6, 3), mode=SharingMode.LAYER_SHARE)

    def test_layout_same_in_every_mode(self):
        layouts = {model.ParamLayout.of(small_config(hidden=(8, 6, 4), mode=mode))
                   for mode in SharingMode}
        assert len(layouts) == 1


from gradcheck import analytic_grads, finite_diff_check, loss_of  # noqa: E402


class TestGradients:
    def test_single_affine_mse_closed_form(self):
        cards = (3,)
        cfg = ModelConfig(cards, 2, (2, 1), CrossKind.NONE, SharingMode.CONNECTION_SHARE)
        p = model.init_params(cfg, 0)
        ids = np.array([[1]])
        y = np.array([0.25])
        preds, cache = model.forward(ids, p, cfg, Task.CVR, want_cache=True)
        dlogit = 2 * (preds - y) * preds * (1 - preds)
        grads = model.backward(dlogit, cache, p, cfg)
        expected = 2 * (preds[0] - y[0]) * preds[0] * (1 - preds[0]) * cache.layer_inputs[0][0]
        np.testing.assert_allclose(grads.dense.mlp_weights[0][:, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("task", [Task.CTR, Task.CVR])
    @pytest.mark.parametrize("cross", [CrossKind.NONE, CrossKind.PAIRWISE_DOT,
                                       CrossKind.PAIRWISE_PRODUCT])
    def test_finite_difference(self, task, cross):
        cfg = small_config(n_fields=3, dim=3, hidden=(5, 3), cross=cross,
                           cards=(4, 3, 5))
        assert finite_diff_check(cfg, task, seed=11) < 1e-3

    def test_finite_difference_layer_share(self):
        cfg = small_config(n_fields=3, dim=3, hidden=(5, 4, 4), cross=CrossKind.PAIRWISE_DOT,
                           cards=(4, 3, 5), mode=SharingMode.LAYER_SHARE)
        assert finite_diff_check(cfg, Task.CTR, seed=12) < 1e-3

    def test_finite_difference_masked(self):
        cfg = small_config(n_fields=3, dim=3, hidden=(5, 3), cards=(4, 3, 5))
        p = model.init_params(cfg, 13)
        rng = nn.make_rng(14)
        mask = TaskMask([(rng.random(w.shape) < 0.7).astype(float)
                         for w in p.mlp_weights], Task.CTR)
        assert finite_diff_check(cfg, Task.CTR, seed=13, mask=mask) < 1e-3

    def test_relu_dead_unit_zero_gradient(self):
        cfg = small_config(n_fields=2, dim=2, hidden=(3,), cards=(3, 3))
        p = model.init_params(cfg, 4)
        ids = np.array([[1, 2]])
        _, cache = model.forward(ids, p, cfg, Task.CVR, want_cache=True)
        dead = cache.layer_inputs[1][0] == 0
        assert dead.any(), "pick a seed with a dead unit"
        grads = analytic_grads(p, cfg, Task.CVR, ids, np.array([0.9]))
        assert (grads.dense.mlp_weights[0][:, dead] == 0).all()

    def test_embedding_row_gradient_single_touch(self):
        cfg = small_config(n_fields=2, dim=3, hidden=(4,), cards=(5, 5))
        p = model.init_params(cfg, 7)
        ids = np.array([[2, 1], [3, 1]])  # field-0 row 2 touched by sample 0 only
        labels = np.array([0.2, 0.8])
        grads = analytic_grads(p, cfg, Task.CVR, ids, labels)
        h = 1e-6
        num = np.zeros(3)
        for j in range(3):
            orig = p.embeddings[0][2, j]
            p.embeddings[0][2, j] = orig + h
            lp = loss_of(p, cfg, Task.CVR, ids, labels)
            p.embeddings[0][2, j] = orig - h
            lm = loss_of(p, cfg, Task.CVR, ids, labels)
            p.embeddings[0][2, j] = orig
            num[j] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(grads.dense.embeddings[0][2], num, rtol=1e-4, atol=1e-10)
        assert (grads.dense.embeddings[0][4] == 0).all()  # untouched row


def scatter_cross_backward(emb, d_x, cross_kind):
    """Reference: the cross backward as two unbuffered scatter-adds per kind."""
    n, F, d = emb.shape
    flat_w = F * d
    d_emb = d_x[:, :flat_w].reshape(n, F, d).copy()
    kind = CrossKind(cross_kind)
    if kind is CrossKind.NONE or F == 1:
        return d_emb
    pi, pj = np.triu_indices(F, k=1)
    if kind is CrossKind.PAIRWISE_DOT:
        g = d_x[:, flat_w:]
        np.add.at(d_emb, (slice(None), pi), g[:, :, None] * emb[:, pj, :])
        np.add.at(d_emb, (slice(None), pj), g[:, :, None] * emb[:, pi, :])
    else:
        g = d_x[:, flat_w:].reshape(n, len(pi), d)
        np.add.at(d_emb, (slice(None), pi), g * emb[:, pj, :])
        np.add.at(d_emb, (slice(None), pj), g * emb[:, pi, :])
    return d_emb


def scatter_embedding_grads(ids, d_emb, cardinalities):
    """Reference: per-field unbuffered scatter-add into zeroed tables."""
    out = [np.zeros((card, d_emb.shape[2])) for card in cardinalities]
    for f, table in enumerate(out):
        np.add.at(table, ids[:, f], d_emb[:, f, :])
    return out


def scatter_table_grads(rows, d_emb, n_rows):
    """Reference for ``model._table_grads``: an unbuffered scatter-add of
    the (n, F, d) d_emb, in (sample, field) order, into the zeroed stacked
    tables, then their touched rows."""
    table = np.zeros((n_rows, d_emb.shape[2]))
    np.add.at(table, rows, d_emb)
    touched = np.unique(rows)
    return touched, table[touched]


def embedding_grads(ids, d_emb, cardinalities, size):
    """The dense form of ``model._table_grads`` for per-field ids (n, F)
    and d_emb (n, F, d): a flat vector of ``size`` entries, the tables back
    to back from entry 0, then zeros."""
    cards, d = np.array(cardinalities), d_emb.shape[2]
    touched, values = model._table_grads(ids + (np.cumsum(cards) - cards), d_emb,
                                         int(cards.sum()))
    flat = np.zeros(size)
    flat[:cards.sum() * d].reshape(-1, d)[touched] = values
    return flat


def edge_values(rng, shape):
    """Normals over 13 decades with +0.0, -0.0 and denormals mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    kind = rng.integers(0, 20, shape)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    denormal = kind == 2
    x[denormal] = rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320], size=int(denormal.sum()))
    return x


def dot_error_bound(emb, d_x):
    """Elementwise bound on how far two float64 evaluations of the
    pairwise-dot cross backward may each fall from the exact sum, added:
    ``2·F·eps·(|d_flat| + Σⱼ |g_kj|·|emb_j|)``, where the sum of magnitudes
    is ``scatter_cross_backward`` of the magnitudes. Each of the F terms of
    one entry's sum may also round once in the subnormal range, by at most
    half of the smallest subnormal, so the bound adds F of those."""
    F = emb.shape[1]
    magnitude = scatter_cross_backward(np.abs(emb), np.abs(d_x), CrossKind.PAIRWISE_DOT)
    tiny = np.finfo(np.float64).smallest_subnormal
    return 2 * F * np.finfo(np.float64).eps * magnitude + F * tiny


def upper_triangle_dot_backward(emb, d_x):
    """A wrong pairwise-dot cross backward: dG holds each pair's gradient
    only at (i, j), i < j, so field j misses its term from field i."""
    n, F, d = emb.shape
    pi, pj = np.triu_indices(F, k=1)
    dG = np.zeros((n, F, F))
    dG[:, pi, pj] = d_x[:, F * d:]
    return d_x[:, :F * d].reshape(n, F, d) + dG @ emb


class TestBackwardBitIdentity:
    """The cross backward and table gradient against the scatter-add
    references. NONE and PAIRWISE_PRODUCT reproduce them bit for bit, and
    a wrong partner order for F >= 4 would pass the gradient check but
    fail here. PAIRWISE_DOT is a BLAS matmul whose summation order is not
    the scatter-add's, so it is held to the rounding-error bound of both
    sums (``dot_error_bound``), and the table gradient of its output to
    the scatter-add bit for bit."""

    @pytest.mark.parametrize("cross", list(CrossKind))
    @pytest.mark.parametrize("F", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_cross_backward(self, cross, F, d, n):
        rng = nn.make_rng(1000 * F + 10 * d + n)
        # wide exponent spread so that any change of summation order moves bits
        emb = rng.standard_normal((n, F, d)) * 10.0 ** rng.integers(-6, 7, (n, F, d))
        width = cross_output_width(F, d, cross)
        d_x = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-6, 7, (n, width))
        got = model._cross_backward(emb, d_x, cross)
        want = scatter_cross_backward(emb, d_x, cross)
        assert got.shape == want.shape == (n, F, d)
        if cross is CrossKind.PAIRWISE_DOT:
            assert (np.abs(got - want) <= dot_error_bound(emb, d_x)).all()
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), F=st.integers(1, 9), d=st.integers(1, 9),
           n=st.integers(1, 64))
    def test_pairwise_dot_within_error_bound(self, seed, F, d, n):
        """The Gram-form backward against the scatter-add reference, entry
        by entry, on values over 13 decades with +-0.0 and subnormals."""
        rng = nn.make_rng(seed)
        emb = edge_values(rng, (n, F, d))
        d_x = edge_values(rng, (n, cross_output_width(F, d, CrossKind.PAIRWISE_DOT)))
        got = model._cross_backward(emb, d_x, CrossKind.PAIRWISE_DOT)
        want = scatter_cross_backward(emb, d_x, CrossKind.PAIRWISE_DOT)
        assert got.shape == want.shape == (n, F, d) and got.dtype == np.float64
        assert (np.abs(got - want) <= dot_error_bound(emb, d_x)).all()

    def test_error_bound_rejects_one_triangle(self):
        """The bound is tight enough to catch a dG filled above its diagonal
        only, on the inputs of the bound test's shapes."""
        rng = nn.make_rng(5)
        emb = edge_values(rng, (64, 9, 9))
        d_x = edge_values(rng, (64, cross_output_width(9, 9, CrossKind.PAIRWISE_DOT)))
        want = scatter_cross_backward(emb, d_x, CrossKind.PAIRWISE_DOT)
        wrong = upper_triangle_dot_backward(emb, d_x)
        assert (np.abs(wrong - want) > dot_error_bound(emb, d_x)).any()

    @pytest.mark.parametrize("F", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_embedding_grads(self, F, d, n):
        rng = nn.make_rng(7000 + 1000 * F + 10 * d + n)
        # cardinality 1 tables and few-row tables make ids repeat heavily
        cards = tuple(int(c) for c in rng.choice([1, 2, 3, 40], size=F))
        ids = np.stack([rng.integers(0, c, n) for c in cards], axis=1)
        d_emb = rng.standard_normal((n, F, d)) * 10.0 ** rng.integers(-6, 7, (n, F, d))
        tables = sum(cards) * d
        flat = embedding_grads(ids, d_emb, cards, tables + 5)
        assert flat.shape == (tables + 5,) and flat.dtype == np.float64
        assert flat[tables:].tobytes() == np.zeros(5).tobytes()
        got = np.split(flat[:tables], np.cumsum(np.array(cards) * d)[:-1])
        want = scatter_embedding_grads(ids, d_emb, cards)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            g = g.reshape(-1, d)
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("cross", list(CrossKind))
    def test_backward_embedding_blocks(self, cross):
        """``backward``'s table blocks are the scatter-add of its cross
        backward's output: the reference's for NONE and PAIRWISE_PRODUCT,
        and for PAIRWISE_DOT ``model._cross_backward``'s own, which
        ``test_cross_backward`` bounds."""
        cfg = small_config(n_fields=5, dim=3, hidden=(6, 4), cross=cross,
                           cards=(1, 2, 7, 3, 1))
        p = model.init_params(cfg, 21)
        ids = random_ids(cfg, 64, seed=22)
        _, cache = model.forward(ids, p, cfg, Task.CTR, want_cache=True)
        dlogit = nn.make_rng(23).standard_normal(64)
        grads = model.backward(dlogit, cache, p, cfg)
        d_out = dlogit[:, None]
        for li in range(len(p.mlp_weights) - 1, -1, -1):
            if li < len(p.mlp_weights) - 1:
                d_out = d_out * (cache.layer_inputs[li + 1] > 0)
            d_out = d_out @ p.mlp_weights[li].T
        cross_backward = (model._cross_backward if cross is CrossKind.PAIRWISE_DOT
                          else scatter_cross_backward)
        d_emb = cross_backward(cache.emb, d_out, cross)
        want = scatter_embedding_grads(ids, d_emb, cfg.field_cardinalities)
        for g, w in zip(grads.dense.embeddings, want):
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), F=st.integers(1, 9), d=st.integers(1, 9),
           n=st.integers(1, 300), cross=st.sampled_from(list(CrossKind)))
    def test_backward_path_matches_scatter_adds(self, seed, F, d, n, cross):
        """Cross backward then table gradient, as ``backward`` chains them,
        against both scatter-add references (for PAIRWISE_DOT, the table
        reference of the cross output, which is bounded as above): one-row
        and few-row fields repeat rows across samples, equal ids recur
        across one sample's fields, and the values include +-0.0 and
        denormals."""
        rng = nn.make_rng(seed)
        cards = tuple(int(c) for c in rng.choice([1, 2, 3, 40], size=F))
        ids = np.stack([rng.integers(0, c, n) for c in cards], axis=1)
        emb = edge_values(rng, (n, F, d))
        d_x = edge_values(rng, (n, cross_output_width(F, d, cross)))
        rows = ids + (np.cumsum(cards) - cards)
        d_emb = model._cross_backward(emb, d_x, cross)
        touched, values = model._table_grads(rows, d_emb, sum(cards))
        want_emb = scatter_cross_backward(emb, d_x, cross)
        if cross is CrossKind.PAIRWISE_DOT:
            assert (np.abs(d_emb - want_emb) <= dot_error_bound(emb, d_x)).all()
            want_emb = d_emb
        want = np.concatenate(scatter_embedding_grads(ids, want_emb, cards))
        assert touched.tolist() == np.unique(rows).tolist()
        assert values.shape == (len(touched), d) and values.dtype == np.float64
        assert values.tobytes() == want[touched].tobytes()


def out_of_place_mlp_forward(x, weights, biases):
    """Reference for ``model.mlp_forward``: every layer's ``z = inp @ w + b``
    and ``h = max(z, 0)`` as fresh arrays, ``(preds, logits, layer_inputs,
    pre_activations)``."""
    layer_inputs, pre_acts = [], []
    h = x
    for li, (w, b) in enumerate(zip(weights, biases)):
        layer_inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0) if li < len(weights) - 1 else z
    logits = h[:, 0]
    preds = np.clip(nn.sigmoid(logits), np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
    return preds, logits, layer_inputs, pre_acts


def z_gated_backward(d_logits, emb, rows, layer_inputs, pre_acts, weights, layers, params,
                     cfg):
    """Reference for ``model.backward``: each hidden layer's ReLU gate is
    ``z > 0`` on the pre-activations of ``out_of_place_mlp_forward``."""
    d_out = d_logits[:, None]
    layout = params.layout
    mlp = model._FlatBlocks(dataclasses.replace(layout, embeddings=()))
    for li in range(len(weights) - 1, -1, -1):
        if li < len(weights) - 1:
            d_out = d_out * (pre_acts[li] > 0)
        d_w, d_b, d_out = nn.affine_backward(layer_inputs[li], weights[li], d_out)
        if layers is not None:
            d_w *= layers[li]
        np.add(mlp.mlp_weights[li], d_w, out=mlp.mlp_weights[li])
        np.add(mlp.mlp_biases[li], d_b, out=mlp.mlp_biases[li])
    d_emb = model._cross_backward(emb, d_out, cfg.cross_kind)
    touched, values = model._table_grads(rows, d_emb, len(params.tables))
    return mlp.flat, touched, values


def unit_mask(weights, rng, task):
    """A neuron_share-style mask: whole hidden units shut, their incoming
    columns and outgoing rows zero."""
    layers = [np.ones_like(w) for w in weights]
    for li in range(len(weights) - 1):
        dead = rng.random(weights[li].shape[1]) < 0.4
        layers[li][:, dead] = 0.0
        layers[li + 1][dead] = 0.0
    return TaskMask(layers, task)


class TestFusedForwardBitIdentity:
    """``mlp_forward`` writes each layer's bias and ReLU into its matmul's
    output, and ``backward`` gates on the layer outputs. Both reproduce the
    out-of-place forward and the ``z > 0`` gate bit for bit, and leave every
    array the two tasks share as it was."""

    @staticmethod
    def net(mode, cross, seed):
        cfg = small_config(n_fields=4, dim=3, hidden=(8, 6), mode=mode, cross=cross,
                           cards=(1, 3, 7, 4))
        p = model.init_params(cfg, seed)
        rng = nn.make_rng(seed + 1)
        for b in p.mlp_biases:  # nonzero biases, some exactly 0.0 or -0.0
            b[...] = rng.standard_normal(b.shape) * 0.3
            b[rng.random(b.shape) < 0.2] = 0.0
            b[rng.random(b.shape) < 0.1] = -0.0
        masks = {}
        if mode is SharingMode.CONNECTION_SHARE:
            masks = {t: TaskMask([(rng.random(w.shape) < 0.6).astype(float)
                                  for w in p.mlp_weights], t) for t in (Task.CTR, Task.CVR)}
        elif mode is SharingMode.NEURON_SHARE:
            masks = {t: unit_mask(p.mlp_weights, rng, t) for t in (Task.CTR, Task.CVR)}
        return cfg, p, masks

    @pytest.mark.parametrize("cross", list(CrossKind))
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_forward_and_backward(self, cross, mode, n):
        cfg, p, masks = self.net(mode, cross, 31 + n)
        ids = random_ids(cfg, n, seed=n)
        ids_before, flat_before = ids.copy(), p.flat.copy()
        dlogit = nn.make_rng(n + 2).standard_normal(n)
        for task in (Task.CTR, Task.CVR):
            mask = masks.get(task)
            weights, biases = model.task_weights(p, cfg, task, mask)
            emb, rows, x = model.front(ids, p, cfg)
            want_preds, want_logits, want_inputs, pre_acts = out_of_place_mlp_forward(
                x, weights, biases)
            preds, cache = model.forward(ids, p, cfg, task, mask=mask, want_cache=True)
            assert preds.tobytes() == want_preds.tobytes()
            assert cache.logits.tobytes() == want_logits.tobytes()
            assert len(cache.layer_inputs) == len(want_inputs)
            for got, want in zip(cache.layer_inputs, want_inputs):
                assert got.tobytes() == want.tobytes()
            grads = model.backward(dlogit, cache, p, cfg, mask=mask)
            layers = None if mask is None else mask.layers
            if mode is SharingMode.LAYER_SHARE:
                layers = model.tower_masks(cfg)[task]
            mlp, touched, values = z_gated_backward(dlogit, emb, rows, want_inputs, pre_acts,
                                                    weights, layers, p, cfg)
            assert grads.mlp.tobytes() == mlp.tobytes()
            assert grads.rows.tobytes() == touched.tobytes()
            assert grads.values.tobytes() == values.tobytes()
        assert ids.tobytes() == ids_before.tobytes()
        assert p.flat.tobytes() == flat_before.tobytes()

    @pytest.mark.parametrize("cross", list(CrossKind))
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_shared_front_untouched(self, cross, mode, monkeypatch):
        cfg, p, masks = self.net(mode, cross, 5)
        ids = random_ids(cfg, 40, seed=6)
        ids_before, flat_before = ids.copy(), p.flat.copy()
        x = model.front(ids, p, cfg)[2]
        x_before = x.copy()
        heads = {t: model.task_weights(p, cfg, t, masks.get(t)) for t in (Task.CTR, Task.CVR)}
        for task, (weights, biases) in heads.items():
            assert model.mlp_forward(x, weights, biases)[0].tobytes() == \
                out_of_place_mlp_forward(x_before, weights, biases)[0].tobytes()
            assert x.tobytes() == x_before.tobytes()
        monkeypatch.setattr(training, "PREDICT_CHUNK", 16)
        got = predict_tasks({t: (p, cfg, masks.get(t)) for t in heads}, ids)
        for task, (weights, biases) in heads.items():
            want = np.concatenate([out_of_place_mlp_forward(
                model.front(ids[i:i + 16], p, cfg)[2], weights, biases)[0]
                for i in range(0, len(ids), 16)])
            assert got[task].tobytes() == want.tobytes()
        assert ids.tobytes() == ids_before.tobytes()
        assert p.flat.tobytes() == flat_before.tobytes()


def gather_feature_cross(emb, cross_kind):
    """Reference: the cross with pair-indexed gathers of emb."""
    n, F, d = emb.shape
    flat = emb.reshape(n, F * d)
    kind = CrossKind(cross_kind)
    if kind is CrossKind.NONE or F == 1:
        return flat
    pi, pj = np.triu_indices(F, k=1)
    if kind is CrossKind.PAIRWISE_DOT:
        dots = np.einsum("npd,npd->np", emb[:, pi, :], emb[:, pj, :])
        return np.concatenate([flat, dots], axis=1)
    prods = (emb[:, pi, :] * emb[:, pj, :]).reshape(n, -1)
    return np.concatenate([flat, prods], axis=1)


class TestFeatureCrossBitIdentity:
    """The slice-based cross equals the gather-based reference bit for bit."""

    @pytest.mark.parametrize("cross", [CrossKind.PAIRWISE_DOT, CrossKind.PAIRWISE_PRODUCT])
    @pytest.mark.parametrize("F", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("d", [1, 3, 8, 17])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_matches_gather(self, cross, F, d, n):
        rng = nn.make_rng(3000 + 1000 * F + 10 * d + n)
        # wide exponent spread so that any change of summation order moves bits
        emb = rng.standard_normal((n, F, d)) * 10.0 ** rng.integers(-6, 7, (n, F, d))
        got = model.feature_cross(emb, cross)
        want = gather_feature_cross(emb, cross)
        assert got.shape == want.shape == (n, cross_output_width(F, d, cross))
        assert got.tobytes() == want.tobytes()


class TestSnapshot:
    def test_snapshot_and_rewind(self):
        cfg = small_config()
        p = model.init_params(cfg, 5)
        p.take_snapshot()
        blocks_before = [b.copy() for b in p.blocks()]
        for b in p.blocks():
            b += 1.0
        p.rewind()
        for b, ref in zip(p.blocks(), blocks_before):
            assert (b == ref).all()


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        cfg = small_config(hidden=(6, 4))
        p = model.init_params(cfg, 9)
        f1, f2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(f1, p, cfg)
        cfg2, p2 = model.load_checkpoint(f1)
        assert cfg2 == cfg
        for a, b in zip(p.blocks(), p2.blocks()):
            assert (a == b).all()
        model.save_checkpoint(f2, p2, cfg2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        cfg = small_config()
        p = model.init_params(cfg, 9)
        f = tmp_path / "a.ckpt"
        model.save_checkpoint(f, p, cfg)
        f.write_bytes(f.read_bytes()[:-10])
        with pytest.raises(CheckpointFormatError):
            model.load_checkpoint(f)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "junk.ckpt"
        f.write_bytes(b"nope" + b"\x00" * 100)
        with pytest.raises(CheckpointFormatError):
            model.load_checkpoint(f)

    @pytest.mark.parametrize("mode,cross,cards,dim,hidden,header", [
        (SharingMode.SINGLE_TASK, CrossKind.NONE, (3, 5), 2, (4, 2),
         b'{"cross_kind": "none", "embedding_dim": 2, "field_cardinalities": [3, 5], '
         b'"mlp_dims": [4, 4, 2, 1], "sharing_mode": "single_task"}'),
        (SharingMode.LAYER_SHARE, CrossKind.PAIRWISE_DOT, (10 ** 12, 7, 2), 3, (6, 4),
         b'{"cross_kind": "pairwise_dot", "embedding_dim": 3, "field_cardinalities": '
         b'[1000000000000, 7, 2], "mlp_dims": [12, 6, 4, 1], "sharing_mode": "layer_share"}'),
        (SharingMode.CONNECTION_SHARE, CrossKind.PAIRWISE_PRODUCT, (4, 4), 1, (3,),
         b'{"cross_kind": "pairwise_product", "embedding_dim": 1, "field_cardinalities": '
         b'[4, 4], "mlp_dims": [3, 3, 1], "sharing_mode": "connection_share"}'),
        (SharingMode.NEURON_SHARE, CrossKind.PAIRWISE_DOT, (9,), 4, (8, 8),
         b'{"cross_kind": "pairwise_dot", "embedding_dim": 4, "field_cardinalities": [9], '
         b'"mlp_dims": [4, 8, 8, 1], "sharing_mode": "neuron_share"}'),
    ], ids=[m.value for m in SharingMode])
    def test_header_golden_bytes(self, mode, cross, cards, dim, hidden, header):
        """Version 1 headers, byte for byte, in every sharing mode and cross
        kind; each loads back to its config."""
        cfg = small_config(dim=dim, hidden=hidden, mode=mode, cross=cross, cards=cards)
        assert model._ckpt_header(cfg) == header
        assert ModelConfig(**json.loads(header)) == cfg

    @staticmethod
    def _blob(header, payload: bytes) -> bytes:
        """Checkpoint bytes whose header is the JSON of ``header``."""
        header = json.dumps(header).encode("utf-8")
        return model.CKPT_MAGIC + struct.pack("<II", model.CKPT_VERSION, len(header)) \
            + header + payload

    @pytest.mark.parametrize("edit", [
        lambda h: [h], lambda h: None, lambda h: "connection_share",
        lambda h: {**h, "field_cardinalities": 5},
        lambda h: {**h, "field_cardinalities": [[5], [5], [5]]},
        lambda h: {**h, "embedding_dim": "4"},
        lambda h: {**h, "mlp_dims": None},
        lambda h: {**h, "embedding_dim": 4.0},
        lambda h: {**h, "field_cardinalities": [5, 5, 1e400]},
        lambda h: {**h, "mlp_dims": [h["mlp_dims"][0], 2 ** 62, 1]},
    ], ids=["list", "null", "string", "int_cards", "nested_cards", "string_dim", "null_dims",
            "float_dim", "inf_card", "huge_width"])
    def test_mistyped_header_rejected(self, tmp_path, edit):
        cfg = small_config()
        f = tmp_path / "a.ckpt"
        size = model.ParamLayout.of(cfg).size
        f.write_bytes(self._blob(edit(dataclasses.asdict(cfg)), b"\0" * 8 * size))
        with pytest.raises(CheckpointFormatError, match="bad checkpoint header"):
            model.load_checkpoint(f)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_checkpoint_raises_only_format_error(self, tmp_path_factory, data):
        """Truncated, byte-flipped or mistyped checkpoints load or raise
        CheckpointFormatError, and nothing else."""
        cfg = small_config(n_fields=2, dim=2, hidden=(3,))
        f = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        model.save_checkpoint(f, model.init_params(cfg, 0), cfg)
        blob = f.read_bytes()
        how = data.draw(st.sampled_from(["truncate", "flip", "header"]))
        if how == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        elif how == "flip":
            raw = bytearray(blob)
            for i in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
                raw[i] ^= data.draw(st.integers(1, 255))
            blob = bytes(raw)
        else:
            value = data.draw(JSON_VALUES)
            key = data.draw(st.sampled_from([None, *dataclasses.asdict(cfg)]))
            header = value if key is None else {**dataclasses.asdict(cfg), key: value}
            blob = self._blob(header, blob[12 + struct.unpack_from("<I", blob, 8)[0]:])
        f.write_bytes(blob)
        try:
            model.load_checkpoint(f)
        except CheckpointFormatError:
            pass
