import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import masking, nn
from lotshare.errors import ConfigError, MaskFormatError, ShapeError
from lotshare.masking import (MaskOverlapStats, TaskMask, deserialize_mask, overlap_stats,
                              prune_connections, prune_neurons,
                              quantile_threshold, serialize_mask)
from lotshare.model import Task


def sort_oracle(values, q):
    s = sorted(values)
    return s[math.ceil(q * len(s)) - 1]


class TestQuantileThreshold:
    def test_four_values_median(self):
        assert quantile_threshold([0.1, 0.5, 1.0, 2.0], 0.5) == 0.5

    def test_constant_sequence(self):
        assert quantile_threshold([3.3] * 4, 0.77) == 3.3

    def test_large_uniform_matches_sort_oracle(self):
        vals = nn.make_rng(0).random(1000)
        assert quantile_threshold(vals, 0.3) == sort_oracle(vals, 0.3)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=200),
           st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_oracle(self, vals, q):
        assert quantile_threshold(vals, q) == sort_oracle(vals, q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile_threshold([], 0.5)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_threshold([1.0], 1.0)


def one_layer_mask(weights, task=Task.CTR):
    return TaskMask.all_ones(weights, task)


class TestPruneConnections:
    def test_strict_less_than(self):
        w = [np.array([[0.1, 0.5, 1.0, 2.0]])]
        m = prune_connections(w, one_layer_mask(w), 0.5)
        assert (m.layers[0] == np.array([[0.0, 1.0, 1.0, 1.0]])).all()
        assert m.pruning_round == 1

    def test_previously_pruned_stays_pruned(self):
        w = [np.array([[5.0, 0.5, 1.0, 2.0]])]
        m0 = TaskMask([np.array([[0.0, 1.0, 1.0, 1.0]])], Task.CTR, 1)
        m1 = prune_connections(w, m0, 0.5)
        assert m1.layers[0][0, 0] == 0.0  # huge weight, but already dead

    def test_all_equal_nothing_pruned(self):
        w = [np.full((2, 3), 0.7)]
        m = prune_connections(w, one_layer_mask(w), 0.5)
        assert m.survivor_count() == 6

    def test_global_pooling_across_layers(self):
        # small weights concentrated in layer 0: global quantile prunes there
        w = [np.array([[0.01, 0.02, 0.03, 0.04]]), np.array([[1.0, 2.0, 3.0, 4.0]])]
        m = prune_connections(w, one_layer_mask(w), 0.5)
        assert m.layers[0].sum() == 1  # only the 0.04 survives (ties at x live)
        assert m.layers[1].sum() == 4

    def test_monotone_rounds_and_survivor_bound(self):
        rng = nn.make_rng(3)
        w = [rng.standard_normal((10, 8)), rng.standard_normal((8, 4))]
        q = 0.3
        mask = one_layer_mask(w)
        prev = mask
        frac = 1.0
        for r in range(5):
            nxt = prune_connections(w, prev, q)
            for a, b in zip(nxt.layers, prev.layers):
                assert (a <= b).all()
            new_frac = nxt.survivor_fraction()
            assert frac * (1 - q) - 1e-12 <= new_frac <= frac
            # exact count against the sort oracle
            surviving = np.concatenate([np.abs(x[mm != 0])
                                        for x, mm in zip(w, prev.layers)])
            x_thr = sort_oracle(surviving, q)
            expected = int((surviving >= x_thr).sum())
            assert nxt.survivor_count() == expected
            prev, frac = nxt, new_frac

    def test_shape_mismatch(self):
        w = [np.ones((2, 2))]
        with pytest.raises(ShapeError):
            prune_connections(w, TaskMask([np.ones((3, 3))], Task.CTR), 0.5)


class TestPruneNeurons:
    def test_zero_importance_unit_pruned_first(self):
        w = [np.array([[0.0, 1.0, 1.0, 1.0],
                       [0.0, 1.0, 1.0, 1.0]]),
             np.ones((4, 1))]
        m = prune_neurons(w, one_layer_mask(w), 0.3)
        assert (m.layers[0][:, 0] == 0).all()
        assert (m.layers[1][0, :] == 0).all()
        assert (m.layers[0][:, 1:] == 1).all()

    def test_column_and_row_zeroed(self):
        rng = nn.make_rng(5)
        w = [rng.standard_normal((6, 4)), rng.standard_normal((4, 1))]
        m = prune_neurons(w, one_layer_mask(w), 0.4)
        for u in range(4):
            col_dead = (m.layers[0][:, u] == 0).all()
            row_dead = (m.layers[1][u, :] == 0).all()
            assert col_dead == row_dead  # structural consistency

    def test_importance_quantile_rule(self):
        cols = [0.1, 0.5, 1.0, 2.0]
        w = [np.array([[c for c in cols]]), np.ones((4, 1))]
        m = prune_neurons(w, one_layer_mask(w), 0.5)
        # importance quantile x = 0.5; only the 0.1 unit is strictly below
        assert (m.layers[0][:, 0] == 0).all()
        assert m.layers[0][0, 1] == 1.0

    def test_output_units_never_pruned(self):
        rng = nn.make_rng(6)
        w = [rng.standard_normal((6, 4)), rng.standard_normal((4, 1)) * 1e-6]
        m = prune_neurons(w, one_layer_mask(w), 0.4)
        # the output column is only zeroed via pruned hidden rows, never wholesale
        assert m.layers[1].shape == (4, 1)

    def test_monotone(self):
        rng = nn.make_rng(7)
        w = [rng.standard_normal((8, 6)), rng.standard_normal((6, 4)),
             rng.standard_normal((4, 1))]
        prev = one_layer_mask(w)
        for _ in range(3):
            nxt = prune_neurons(w, prev, 0.3)
            for a, b in zip(nxt.layers, prev.layers):
                assert (a <= b).all()
            prev = nxt

    def test_no_surviving_unit_is_a_config_error(self):
        """A round that removes every unit of the first hidden layer cuts off
        the second, so the next round has nothing to prune: a ConfigError
        (CLI exit 2) naming that round and the prune fraction."""
        w = [np.full((3, 2), 0.1), np.full((2, 1), 5.0), np.ones((1, 1))]
        m = prune_neurons(w, one_layer_mask(w), 0.9)
        assert [layer.tolist() for layer in m.layers] == [
            [[0.0, 0.0]] * 3, [[0.0]] * 2, [[1.0]]]
        with pytest.raises(ConfigError) as exc:
            prune_neurons(w, m, 0.9)
        assert str(exc.value) == (
            "neuron pruning: mask round 1 has no hidden unit left to prune, since an "
            "earlier round removed a whole hidden layer; try a lower "
            "train.prune_fraction (now 0.9)")


class TestOverlapStats:
    def test_identical_masks(self):
        m = TaskMask([np.ones((3, 3))], Task.CTR)
        m2 = TaskMask([np.ones((3, 3))], Task.CVR)
        s = overlap_stats(m, m2)
        assert (s.ctr_only, s.cvr_only) == (0, 0)
        assert s.shared == 9 and s.dead == 0

    def test_complementary_masks(self):
        a = np.eye(4)
        s = overlap_stats(TaskMask([a], Task.CTR), TaskMask([1 - a], Task.CVR))
        assert s.shared == 0 and s.dead == 0
        assert s.ctr_only == 4 and s.cvr_only == 12

    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_oracle(self, seed):
        rng = nn.make_rng(seed)
        a = (rng.random((8, 8)) < 0.5).astype(float)
        b = (rng.random((8, 8)) < 0.5).astype(float)
        s = overlap_stats(TaskMask([a], Task.CTR), TaskMask([b], Task.CVR))
        counts = [0, 0, 0, 0]
        for i in range(8):
            for j in range(8):
                if a[i, j] and b[i, j]:
                    counts[0] += 1
                elif a[i, j]:
                    counts[1] += 1
                elif b[i, j]:
                    counts[2] += 1
                else:
                    counts[3] += 1
        assert (s.shared, s.ctr_only, s.cvr_only, s.dead) == tuple(counts)
        assert s.total == 64

    def test_text_and_kv(self):
        s = overlap_stats(TaskMask([np.ones((2, 2))], Task.CTR),
                          TaskMask([np.ones((2, 2))], Task.CVR))
        assert "shared" in s.to_text()
        assert "shared=4" in s.to_kv_lines()


class TestSerialization:
    def test_round_trip(self):
        rng = nn.make_rng(8)
        m = TaskMask([(rng.random((7, 5)) < 0.5).astype(float),
                      (rng.random((5, 1)) < 0.5).astype(float)], Task.CVR, 3)
        assert deserialize_mask(serialize_mask(m)) == m

    def test_all_ones_2x2_payload(self):
        m = TaskMask([np.ones((2, 2))], Task.CTR, 0)
        blob = serialize_mask(m)
        assert blob[:4] == b"LTMK"
        rows, cols = np.frombuffer(blob[12:20], dtype="<u4")
        assert (rows, cols) == (2, 2)
        assert blob[-1] == 0b1111  # four set bits, little-endian packing

    @pytest.mark.parametrize("task,code", [(Task.CTR, 0), (Task.CVR, 1)])
    def test_golden_bytes(self, task, code):
        """Version 1 bytes: a task's code is its index in TASKS, and no
        other code reads."""
        blob = serialize_mask(TaskMask([np.ones((2, 3))], task, 1))
        assert blob == (b"LTMK\x01\x01\x00" + bytes([code])
                        + b"\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x3f")
        assert deserialize_mask(blob).task is task
        with pytest.raises(MaskFormatError, match="unknown task code 2$"):
            deserialize_mask(blob[:7] + b"\x02" + blob[8:])

    def test_truncated_rejected(self):
        m = TaskMask([np.ones((4, 4))], Task.CTR)
        blob = serialize_mask(m)
        with pytest.raises(MaskFormatError):
            deserialize_mask(blob[:-1])
        with pytest.raises(MaskFormatError):
            deserialize_mask(blob[:6])
        with pytest.raises(MaskFormatError):
            deserialize_mask(b"XXXX" + blob[4:])

    def test_trailing_bytes_rejected(self):
        blob = serialize_mask(TaskMask([np.ones((2, 2))], Task.CTR))
        with pytest.raises(MaskFormatError):
            deserialize_mask(blob + b"\x00")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_mask_raises_only_format_error(self, data):
        """Truncated or byte-flipped masks deserialize or raise
        MaskFormatError, and nothing else."""
        blob = serialize_mask(TaskMask([np.eye(5, 3), np.ones((3, 1))], Task.CVR, 2))
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            raw = bytearray(blob)
            for i in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
                raw[i] ^= data.draw(st.integers(1, 255))
            blob = bytes(raw)
        try:
            deserialize_mask(blob)
        except MaskFormatError:
            pass

    def test_file_round_trip(self, tmp_path):
        m = TaskMask([np.eye(6)], Task.CVR, 2)
        path = tmp_path / "m.mask"
        masking.save_mask(path, m)
        assert masking.load_mask(path) == m


def test_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        TaskMask([np.array([[0.5]])], Task.CTR)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 2.0, 1e-300,
                                 np.nextafter(1.0, 2.0)])
def test_mask_rejects_each_non_binary_value(bad):
    layer = np.ones((3, 4))
    layer[1, 2] = bad
    with pytest.raises(ValueError):
        TaskMask([np.zeros((2, 2)), layer], Task.CTR)


@pytest.mark.parametrize("layer", [np.zeros((0, 3)), np.array([[-0.0, 1.0]]),
                                   np.array([[True, False]]), np.array([[1, 0]])])
def test_mask_accepts_binary_layers(layer):
    m = TaskMask([layer], Task.CVR)
    assert m.layers[0].dtype == np.float64
    assert set(np.unique(m.layers[0])) <= {0.0, 1.0}


def test_mask_layers_are_private_and_read_only():
    src = [np.ones((2, 3)), np.zeros((3, 1))]
    m = TaskMask(src, Task.CTR)
    for layer in m.layers:
        with pytest.raises(ValueError):
            layer[0, 0] = 0.5
    src[0][:] = 0.0
    src[1][:] = 1.0
    assert (m.layers[0] == 1.0).all() and (m.layers[1] == 0.0).all()
