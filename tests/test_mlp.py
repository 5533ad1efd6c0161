"""Network forward/backward math, Adam, training loop, persistence."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (MODEL_V2, RESPELT_HEADERS, edit_model_header, finite_difference_grads,
                      full_array_adam_step, identity_bundle, layer_gradients, traced_peak,
                      whole_tensor_layer_gradients)
from wrice import mlp
from wrice.dataset import Extraction, LabeledDataset, Scaler, scale_rows
from wrice.dsp import StftConfig
from wrice.errors import (CorruptModelError, NonFiniteError, SchemaMismatchError,
                          VersionMismatchError)
from wrice.features import SCHEMA_VERSION
from wrice.mlp import (_ADAM_BLOCK, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, MODEL_VERSION,
                       AdamState, MlpModel, TrainConfig, adam_step, forward,
                       init_model, layer_dims_for, load_model, loss_sparse_ce, predict,
                       save_model, softmax, train)


def bundled(layer_dims, seed=0):
    """`init_model` with an identity scaler: the rows it trains on and
    predicts are exactly the raw ones."""
    return init_model(layer_dims, seed=seed, **identity_bundle(layer_dims))


def tensors(model):
    """The weight and bias views in the model file's order: w0, b0, w1, b1, ..."""
    return [t for pair in zip(model.weights, model.biases) for t in pair]


def paper4_model():
    """The paper4 topology on 26 features and 4 classes: 541,188 parameters."""
    return bundled(layer_dims_for("paper4", 26, 4))


def random_rows(n, seed=0, width=26):
    """n random rows, 26 wide unless `width` says otherwise, labelled c0..c3
    in turn."""
    rng = np.random.default_rng(seed)
    return LabeledDataset(features=rng.normal(size=(n, width)), labels=np.arange(n) % 4,
                          label_map=[f"c{i}" for i in range(4)],
                          source_paths=[f"rows/{i}.wav" for i in range(n)],
                          extraction=Extraction())


def blob_dataset(n_per_class=20, seed=0):
    """Two well-separated Gaussian blobs in 2-D (4 sigma apart)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2.0, 0.0), scale=1.0, size=(n_per_class, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=1.0, size=(n_per_class, 2))
    features = np.vstack([a, b]) / 2.0
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return LabeledDataset(features=features, labels=labels, label_map=["left", "right"],
                          source_paths=[f"blob/{i}.wav" for i in range(2 * n_per_class)],
                          extraction=Extraction())


class TestInit:
    def test_reference_architecture_dims(self):
        dims = layer_dims_for("paper4", 26, 4)
        assert dims == [26, 512, 512, 512, 4]
        assert layer_dims_for("compact3", 26, 4) == [26, 512, 512, 4]
        model = bundled(dims, seed=0)
        assert [w.shape for w in model.weights] == [(512, 26), (512, 512),
                                                    (512, 512), (4, 512)]

    def test_glorot_bounds(self):
        model = bundled([26, 512, 4], seed=1)
        for w, fan_in, fan_out in zip(model.weights, [26, 512], [512, 4]):
            limit = np.sqrt(6 / (fan_in + fan_out))
            assert np.abs(w).max() <= limit
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_duplicate_labels_refused(self):
        bundle = identity_bundle([3, 4, 2])
        with pytest.raises(ValueError, match="distinct"):
            init_model([3, 4, 2], seed=0, **{**bundle, "label_map": ["c0", "c0"]})

    def test_seed_determinism(self):
        a = bundled([5, 8, 3], seed=7)
        b = bundled([5, 8, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            bundled([26], seed=0)
        with pytest.raises(ValueError):
            bundled([26, 0, 4], seed=0)


class TestFlatLayout:
    def test_views_share_memory_with_params(self):
        model = bundled([3, 5, 2], seed=0)
        assert model.params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
        for view in model.weights + model.biases:
            assert np.shares_memory(view, model.params)
        model.weights[1][1, 4] = 7.0  # w1 follows w0 (5 x 3) and b0 (5)
        assert model.params[15 + 5 + 1 * 5 + 4] == 7.0
        model.biases[0][2] = -3.0
        assert model.params[15 + 2] == -3.0
        model.biases[1][:] = 9.0
        np.testing.assert_array_equal(model.params[-2:], 9.0)

    def test_copy_shares_no_memory(self):
        model = bundled([3, 5, 2], seed=0)
        twin = model.copy()
        assert not np.shares_memory(twin.params, model.params)
        np.testing.assert_array_equal(twin.params, model.params)
        twin.weights[0][...] = 0.0
        assert np.abs(model.weights[0]).max() > 0.0

    @pytest.mark.parametrize("params", [np.zeros(20), np.zeros(22), np.zeros((21, 1))],
                             ids=["short", "long", "not-flat"])
    def test_params_length_must_match_the_dims(self, params):
        with pytest.raises(ValueError, match=r"params shape .*; layer_dims \[3, 4, 1\] need 21$"):
            MlpModel(layer_dims=[3, 4, 1], params=params, **identity_bundle([3, 4, 1]))


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = bundled([6, 16, 4], seed=2)
        rng = np.random.default_rng(0)
        probs = forward(model, rng.normal(size=(10, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_zero_parameters_give_uniform(self):
        model = bundled([6, 8, 4], seed=0)
        for w in model.weights:
            w[:] = 0.0
        probs = forward(model, np.ones(6))
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_relu_blocks_negative_preactivation(self):
        # one hidden unit wired straight through: y-logit = relu(x)
        # w0 = [[1]], b0 = [0], w1 = [[1], [0]], b1 = [0, 0]
        model = MlpModel(layer_dims=[1, 1, 2], params=np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                         **identity_bundle([1, 1, 2]))
        negative = forward(model, np.array([-3.0]))
        np.testing.assert_allclose(negative, [0.5, 0.5], atol=1e-12)
        positive = forward(model, np.array([3.0]))
        assert positive[0] > 0.9

    def test_dim_mismatch(self):
        model = bundled([6, 8, 4], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros(5))

    def test_softmax_shift_invariance_and_stability(self):
        rng = np.random.default_rng(8)
        logits = rng.uniform(-100, 100, size=(50, 4))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        shifted = softmax(logits + 123.456)
        np.testing.assert_allclose(shifted, probs, atol=1e-12)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        assert loss_sparse_ce(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_four_way(self):
        assert loss_sparse_ce(np.full(4, 0.25), 2) == pytest.approx(np.log(4))

    def test_zero_probability_clamped(self):
        got = loss_sparse_ce(np.array([1.0, 0.0]), 1)
        assert got == pytest.approx(-np.log(1e-12))
        assert np.isfinite(got)

    def test_batch_mean(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        expected = (0.0 - np.log(0.5)) / 2
        assert loss_sparse_ce(probs, [0, 1]) == pytest.approx(expected)

    def test_positive_unless_certain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = softmax(rng.normal(size=4))
            assert loss_sparse_ce(probs, 1) > 0.0

    def test_bad_label(self):
        with pytest.raises(ValueError):
            loss_sparse_ce(np.full(4, 0.25), 7)


class TestBackward:
    def test_output_gradient_is_probs_minus_onehot(self):
        model = bundled([3, 2], seed=3)
        x = np.array([0.5, -1.0, 2.0])
        probs = forward(model, x)
        grad_w, grad_b = layer_gradients(model, x, [1])
        expected_delta = probs.copy()
        expected_delta[1] -= 1.0
        np.testing.assert_allclose(grad_b[0], expected_delta, atol=1e-12)
        np.testing.assert_allclose(grad_w[0], np.outer(expected_delta, x), atol=1e-12)

    def test_matches_finite_differences(self):
        from conftest import gradient_check_instance

        for trial in range(3):
            model, x, y = gradient_check_instance([3, 5, 4, 2], seed=10 + trial, batch=4)
            grad_w, grad_b = layer_gradients(model, x, y)
            num_w, num_b = finite_difference_grads(model, x, y)
            for got, ref in list(zip(grad_w, num_w)) + list(zip(grad_b, num_b)):
                scale = np.maximum(np.abs(ref), 1e-8)
                assert (np.abs(got - ref) / scale).max() < 1e-4

    def test_duplicating_batch_leaves_gradients_unchanged(self):
        model = bundled([4, 6, 3], seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        y = np.array([0, 2, 1])
        gw1, gb1 = layer_gradients(model, x, y)
        gw2, gb2 = layer_gradients(model, np.vstack([x, x]), np.concatenate([y, y]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_an_empty_training_set_is_refused(self):
        # `train` is the only caller of the gradient routine, so no empty
        # batch reaches it
        with pytest.raises(ValueError, match="training set is empty"):
            train(bundled([26, 4], seed=0), random_rows(0))


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_tensors([params])[0]
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(params, [np.array([0.5, -0.25, 4.0])], state, cfg)
        # bias-corrected m/sqrt(v) is sign(g) on the first step
        np.testing.assert_allclose(params, [1.0 - 0.01, -2.0 + 0.01, 3.0 - 0.01], atol=1e-6)
        assert state.t == 1

    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, 2.0])
        state = AdamState.for_tensors([params])[0]
        adam_step(params, [np.zeros(2)], state, TrainConfig())
        np.testing.assert_array_equal(params, [1.0, 2.0])

    def test_identical_trajectories(self):
        def run():
            params = np.array([0.3, -0.7])
            state = AdamState.for_tensors([params])[0]
            cfg = TrainConfig(learning_rate=0.05)
            for step in range(20):
                adam_step(params, [np.array([np.sin(step + 1.0), np.cos(step + 1.0)])],
                          state, cfg)
            return params

        np.testing.assert_array_equal(run(), run())

    def test_matches_the_textbook_update(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=30)  # the length of a [3, 4, 2] model's params
        ref_p, ref_m, ref_v = params.copy(), np.zeros(30), np.zeros(30)
        state = AdamState.for_tensors([params])[0]
        cfg = TrainConfig(learning_rate=0.05)
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, cfg.learning_rate, ADAM_EPSILON
        for t in range(1, 7):
            g = rng.normal(size=30)
            adam_step(params, [g.copy()], state, cfg)
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g * g
            m_hat = ref_m / (1 - b1**t)
            v_hat = ref_v / (1 - b2**t)
            ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
        # the same per-element operations in the same order: bit-equal
        for got, want in zip([params, state.m, state.v], [ref_p, ref_m, ref_v]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("size", [1, _ADAM_BLOCK - 1, _ADAM_BLOCK, _ADAM_BLOCK + 1,
                                      5 * _ADAM_BLOCK // 2, 541_188])
    def test_blocks_match_the_full_array_oracle(self, size):
        self.check_against_the_full_array_oracle(size, cuts=[])

    @pytest.mark.parametrize("cuts", [[1, 7], [_ADAM_BLOCK - 5, _ADAM_BLOCK + 5, 2 * _ADAM_BLOCK]],
                             ids=["short-blocks", "off-grid-blocks"])
    def test_gradient_blocks_off_the_adam_grid_match_the_oracle(self, cuts):
        self.check_against_the_full_array_oracle(5 * _ADAM_BLOCK // 2, cuts)

    @staticmethod
    def check_against_the_full_array_oracle(size, cuts):
        # four steps on a gradient passed in one block, or cut at `cuts`
        rng = np.random.default_rng(size)
        params = rng.normal(size=size)
        want_p, want_state = params.copy(), AdamState.for_tensors([params])[0]
        state = AdamState.for_tensors([params])[0]
        cfg = TrainConfig(learning_rate=0.05)
        for _ in range(4):
            g = rng.normal(size=size)
            adam_step(params, np.split(g.copy(), cuts), state, cfg)
            full_array_adam_step(want_p, [g], want_state, cfg)
        assert state.t == want_state.t == 4
        for got, want in [(params, want_p), (state.m, want_state.m), (state.v, want_state.v)]:
            np.testing.assert_array_equal(got, want)

    def test_each_block_is_drawn_after_the_one_before_is_stepped(self):
        # one buffer refilled for every block, as `_layer_gradients` does
        rng = np.random.default_rng(8)
        params, g = rng.normal(size=(2, 3 * _ADAM_BLOCK + 11))
        want_p, want_state = params.copy(), AdamState.for_tensors([params])[0]
        state = AdamState.for_tensors([params])[0]
        buffer = np.empty(_ADAM_BLOCK)

        def refilled():
            for start in range(0, g.size, _ADAM_BLOCK):
                block = buffer[:g[start : start + _ADAM_BLOCK].size]
                block[...] = g[start : start + _ADAM_BLOCK]
                yield block

        adam_step(params, refilled(), state, TrainConfig())
        full_array_adam_step(want_p, [g], want_state, TrainConfig())
        np.testing.assert_array_equal(params, want_p)

    @pytest.mark.parametrize("size", [0, 1, _ADAM_BLOCK, _ADAM_BLOCK + 1, 541_188])
    def test_scratch_is_at_most_one_block(self, size):
        state = AdamState.for_tensors([np.zeros(size)])[0]
        assert state.scratch.shape == (min(size, _ADAM_BLOCK),)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = AdamState.for_tensors([params])[0]
        with pytest.raises(ValueError, match="differ"):
            adam_step(params, [np.zeros(4)], state, TrainConfig())

    @pytest.mark.parametrize("blocks", [[np.zeros(2)], [np.zeros(2), np.zeros(2)],
                                        [np.zeros((1, 3))]],
                             ids=["short", "overrun", "not-flat"])
    def test_blocks_that_do_not_cover_params_are_refused(self, blocks):
        params = np.zeros(3)
        state = AdamState.for_tensors([params])[0]
        with pytest.raises(ValueError, match="differ"):
            adam_step(params, blocks, state, TrainConfig())

    def test_a_bare_array_is_refused(self):
        # iterating it would give one scalar per element, not blocks
        params = np.zeros(3)
        with pytest.raises(TypeError, match=r"pass a whole gradient g as \[g\]"):
            adam_step(params, np.zeros(3), AdamState.for_tensors([params])[0], TrainConfig())

    def test_params_must_be_flat(self):
        params = np.zeros((2, 3))
        state = AdamState(m=np.zeros((2, 3)), v=np.zeros((2, 3)), scratch=np.empty(6))
        with pytest.raises(ValueError, match="not flat"):
            adam_step(params, [np.zeros(6)], state, TrainConfig())


class TestTrain:
    def test_default_config_matches_reference_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.epochs == 60
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 0.01
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    # refused where it is given, not by `default_rng`, which names no setting
    @pytest.mark.parametrize("make", [lambda: TrainConfig(seed=-1),
                                      lambda: bundled([2, 4, 2], seed=-1)],
                             ids=["train-config", "init-model"])
    def test_a_negative_seed_is_refused(self, make):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            make()

    def test_zero_epochs_returns_identical_model(self):
        ds = blob_dataset()
        model = bundled([2, 8, 2], seed=1)
        trained, history = train(model, ds, TrainConfig(epochs=0, seed=1))
        assert history.loss == [] and history.accuracy == []
        np.testing.assert_array_equal(model.params, trained.params)

    def test_trains_the_given_model_in_place(self):
        ds = blob_dataset()
        model = bundled([2, 8, 2], seed=1)
        params, before = model.params, model.params.copy()
        trained, _ = train(model, ds, TrainConfig(epochs=3, batch_size=8, seed=1))
        assert trained is model and trained.params is params
        assert all(np.shares_memory(t, params) for t in tensors(trained))
        assert not np.array_equal(params, before)

    def test_separable_blobs_reach_tiny_loss(self):
        ds = blob_dataset(n_per_class=20, seed=0)
        left = ds.features[ds.labels == 0][:, 0]
        right = ds.features[ds.labels == 1][:, 0]
        assert left.max() < right.min()  # the realized draw is linearly separable
        model = bundled([2, 16, 2], seed=0)
        trained, history = train(model, ds, TrainConfig(epochs=60, batch_size=8,
                                                        learning_rate=0.01, seed=0))
        assert history.loss[-1] < 0.01
        assert history.accuracy[-1] == 1.0
        assert len(history.loss) == 60

    def test_history_reproducible(self):
        ds = blob_dataset(seed=3)
        cfg = TrainConfig(epochs=5, batch_size=8, seed=9)
        _, h1 = train(bundled([2, 8, 2], seed=4), ds, cfg)
        _, h2 = train(bundled([2, 8, 2], seed=4), ds, cfg)
        assert h1.loss == h2.loss
        assert h1.accuracy == h2.accuracy

    def test_raw_rows_are_scaled_by_the_model_scaler(self):
        ds = blob_dataset()
        scaler = Scaler(mean=np.array([0.5, -1.0]), std=np.array([2.0, 0.5]))
        cfg = TrainConfig(epochs=3, batch_size=8, seed=2)
        model = init_model([2, 8, 2], seed=4, scaler=scaler, label_map=["left", "right"],
                           extraction=Extraction())
        trained, _ = train(model, ds, cfg)
        # the same rows scaled beforehand, trained through an identity scaler
        scaled = replace(ds, features=scale_rows(scaler, ds.features))
        reference, _ = train(bundled([2, 8, 2], seed=4), scaled, cfg)
        np.testing.assert_array_equal(trained.params, reference.params)

    @pytest.mark.parametrize("arch", sorted(mlp.ARCHITECTURES))
    def test_matches_training_with_the_full_array_oracle(self, arch, monkeypatch):
        dims = layer_dims_for(arch, 26, 4)
        rows = random_rows(40, seed=2)
        cfg = TrainConfig(epochs=3, seed=2)
        trained, _ = train(bundled(dims, seed=2), rows, cfg)
        monkeypatch.setattr(mlp, "adam_step", full_array_adam_step)
        reference, _ = train(bundled(dims, seed=2), rows, cfg)
        np.testing.assert_array_equal(trained.params, reference.params)

    # fan_in 200 (160-row blocks) and 448 (72-row blocks) do not divide
    # _ADAM_BLOCK, 33000 exceeds it (8-row blocks), and a fan_in of 300 is
    # not a multiple of 8, so its weight comes as one block
    @pytest.mark.parametrize("dims", [layer_dims_for("paper4", 26, 4),
                                      layer_dims_for("compact3", 26, 4),
                                      [200, 300, 4], [448, 512, 4], [33000, 12, 4], [300, 200, 4]],
                             ids=["paper4", "compact3", "200-300-4", "448-512-4", "33000-12-4",
                                  "300-200-4"])
    def test_row_blocks_match_the_whole_tensor_oracle(self, dims, monkeypatch):
        # 45 rows in batches of 32, so the last batch holds 13
        rows = random_rows(45, seed=5, width=dims[0])
        cfg = TrainConfig(epochs=2, seed=5)

        def trained_with_states():
            made = []
            for_tensors = AdamState.for_tensors
            with monkeypatch.context() as m:
                m.setattr(AdamState, "for_tensors",
                          lambda tensors: made.extend(for_tensors(tensors)) or made)
                model, _ = train(bundled(dims, seed=5), rows, cfg)
            return model, made

        got, got_states = trained_with_states()
        monkeypatch.setattr(mlp, "_layer_gradients", whole_tensor_layer_gradients)
        monkeypatch.setattr(mlp, "adam_step", full_array_adam_step)
        want, want_states = trained_with_states()
        np.testing.assert_array_equal(got.params, want.params)
        assert len(got_states) == len(want_states) == 2 * (len(dims) - 1)
        for g, w in zip(got_states, want_states):
            assert g.t == w.t == 4
            np.testing.assert_array_equal(g.m, w.m)
            np.testing.assert_array_equal(g.v, w.v)

    @pytest.mark.parametrize("dims,rows", [(layer_dims_for("paper4", 26, 4), [512, 64, 64, 4]),
                                           ([448, 600, 4], [72, 4]), ([300, 200, 4], [200, 4]),
                                           ([40000, 20, 4], [8, 4]), ([8, 9000, 4], [4096, 4])],
                             ids=["paper4", "448-600-4", "300-200-4", "40000-20-4", "8-9000-4"])
    def test_weight_gradients_come_in_blocks_of_whole_rows(self, dims, rows):
        # a multiple of 8 rows, at least 8 (BLAS's matrix-vector routine
        # would round a one-row block otherwise), and all rows when fan_in is
        # not a multiple of 8; the one gradient buffer is the largest block,
        # _ADAM_BLOCK elements for paper4
        model = bundled(dims, seed=1)
        x = random_rows(3, width=dims[0]).features
        probs, activations = mlp._forward_cached(model, x)
        buffer = mlp._gradient_buffer(dims)
        sizes = {}
        for index, blocks in mlp._layer_gradients(model, activations, probs, [0, 1, 2], buffer):
            sizes[index] = []
            for block in blocks:
                assert np.shares_memory(block, buffer)
                sizes[index].append(block.size)
        for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
            block = rows[layer] * w.shape[1]
            assert sizes[2 * layer][:-1] == [block] * (len(sizes[2 * layer]) - 1)
            assert sum(sizes[2 * layer]) == w.size and sizes[2 * layer + 1] == [b.size]
        assert buffer.size == max(s for blocks in sizes.values() for s in blocks)

    def test_one_step_is_adam_on_the_backward_gradients(self):
        # one batch of every row: `train` steps each tensor as soon as its
        # gradient is ready, and must still give the one flat Adam step on
        # the gradients of the weights before that step
        rows = random_rows(12, seed=6)
        cfg = TrainConfig(epochs=1, batch_size=rows.n, learning_rate=0.05, seed=6)
        want = bundled([26, 16, 8, 4], seed=6)
        perm = np.random.default_rng(cfg.seed).permutation(rows.n)
        grad_w, grad_b = layer_gradients(want, rows.features[perm], rows.labels[perm])
        grad = np.concatenate([g.ravel() for pair in zip(grad_w, grad_b) for g in pair])
        adam_step(want.params, [grad], AdamState.for_tensors([want.params])[0], cfg)
        trained, _ = train(bundled([26, 16, 8, 4], seed=6), rows, cfg)
        np.testing.assert_array_equal(trained.params, want.params)

    def test_peak_memory_is_two_parameter_arrays_and_two_blocks(self):
        model = paper4_model()
        rows = random_rows(10)
        peak = traced_peak(lambda: train(model, rows, TrainConfig(epochs=2)))
        # Adam's two moments, and slack for the gradient block and the
        # scratch block (0.25 MiB each) and the activations; the gradient of
        # a whole 512 x 512 tensor (2 MiB more), a parameter-length gradient
        # or a copy of the model would exceed it
        bound = 2 * model.params.nbytes + 3 * 2**19
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    def test_empty_training_set(self):
        ds = blob_dataset().subset([])
        with pytest.raises(ValueError):
            train(bundled([2, 8, 2], seed=0), ds, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_diverging_loss_raises(self):
        with pytest.raises(NonFiniteError, match="training loss became nan"):
            train(bundled([2, 8, 2], seed=0), blob_dataset(),
                  TrainConfig(epochs=5, batch_size=8, learning_rate=1e300, seed=0))


class TestBlasThreads:
    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    @pytest.mark.parametrize("learning_rate", [0.01, 1e300], ids=["trains", "diverges"])
    def test_train_runs_on_one_thread_and_restores_the_count(self, monkeypatch, learning_rate):
        # a stand-in setter that returns the count before the call, as
        # OpenBLAS's does
        counts = [3]

        def setter(n):
            counts.append(n)
            return counts[-2]

        monkeypatch.setattr(mlp, "_openblas_setters", lambda: [setter])
        during = []
        forward_cached = mlp._forward_cached
        monkeypatch.setattr(mlp, "_forward_cached",
                            lambda *args: during.append(counts[-1]) or forward_cached(*args))
        try:
            train(bundled([2, 8, 2], seed=0), blob_dataset(),
                  TrainConfig(epochs=2, batch_size=8, learning_rate=learning_rate))
        except NonFiniteError:
            assert learning_rate == 1e300
        assert during and set(during) == {1}
        assert counts == [3, 1, 3]

    def test_numpys_openblas_is_found(self):
        # numpy wheels bundle scipy-openblas; the thread-local setter is in
        # OpenBLAS from 0.3.27 on
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = tuple(int(part) for part in blas["version"].split(".")[:3])
        if "openblas" not in blas["name"] or version < (0, 3, 27):
            pytest.skip(f"numpy uses {blas['name']} {blas['version']}")
        setters = mlp._openblas_setters()
        assert setters
        before = setters[0](1)
        assert setters[0](before) == 1


class TestPredict:
    def test_label_matches_argmax(self):
        model = bundled([3, 8, 4])
        rng = np.random.default_rng(1)
        for _ in range(10):
            fv = rng.normal(size=3)
            label, probs = predict(model, fv)
            assert label == model.label_map[int(np.argmax(probs))]

    def test_zero_weights_tie_break_to_first_label(self):
        model = bundled([3, 8, 4])
        for w in model.weights:
            w[:] = 0.0
        label, probs = predict(model, np.ones(3))
        assert label == "c0"
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_scaling_applied_internally(self):
        model = init_model([2, 6, 3], seed=3,
                           scaler=Scaler(mean=np.array([10.0, -5.0]),
                                         std=np.array([2.0, 4.0])),
                           label_map=["x", "y", "z"], extraction=Extraction())
        raw = np.array([12.0, -1.0])
        _, probs = predict(model, raw)
        np.testing.assert_allclose(probs, forward(model, np.array([1.0, 1.0])),
                                   atol=1e-15)

    def test_segment_matrix_averages_segment_probabilities(self):
        model = bundled([3, 8, 4], seed=2)
        rows = np.random.default_rng(4).normal(scale=3.0, size=(3, 3))
        label, probs = predict(model, rows)
        per_segment = forward(model, rows)  # identity scaler
        np.testing.assert_allclose(probs, per_segment.mean(axis=0), rtol=1e-15)
        assert label == model.label_map[int(np.argmax(per_segment.mean(axis=0)))]
        _, single = predict(model, rows[0])
        np.testing.assert_array_equal(predict(model, rows[:1])[1], single)

    def test_width_mismatch(self):
        model = bundled([3, 8, 4])
        with pytest.raises(SchemaMismatchError):
            predict(model, np.zeros(5))


class TestPersistence:
    def make_model(self):
        return init_model([4, 8, 8, 3], seed=6,
                          scaler=Scaler(mean=np.arange(4.0), std=np.ones(4) + 0.5),
                          label_map=["p", "q", "r"],
                          extraction=Extraction(stft=StftConfig(frame_len=1024, hop=256)))

    def test_round_trip_bitwise(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(model.params, back.params)
        np.testing.assert_array_equal(back.scaler.mean, model.scaler.mean)
        assert back.label_map == model.label_map
        assert back.extraction == model.extraction
        assert back.extraction.stft == StftConfig(frame_len=1024, hop=256)
        assert back.extraction.sample_rate == 22050

        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(forward(model, x), forward(back, x))

    @pytest.mark.parametrize("extraction", [
        Extraction(11025, 1.5, StftConfig(frame_len=512, hop=128), n_mels=40),
    ], ids=["non-default"])
    def test_round_trip_keeps_the_extraction(self, tmp_path, extraction):
        model = replace(self.make_model(), extraction=extraction)
        path = tmp_path / "model.wrice"
        save_model(model, path)
        assert load_model(path).extraction == extraction

    def test_file_of_the_previous_release_loads_unchanged(self, tmp_path):
        # written by the code that kept four loose extraction fields on MlpModel
        model = load_model(MODEL_V2)
        assert model.extraction == Extraction(
            11025, 1.5, StftConfig(frame_len=1024, hop=256), n_mels=40)
        assert model.label_map == ["p", "q", "r"]
        np.testing.assert_array_equal(model.params, bundled([4, 5, 3], seed=1).params)
        save_model(model, tmp_path / "again.wrice")
        assert (tmp_path / "again.wrice").read_bytes() == MODEL_V2.read_bytes()

    @pytest.mark.parametrize("edit", RESPELT_HEADERS)
    def test_a_header_other_than_the_bytes_wrice_writes_is_corrupt(self, tmp_path, edit):
        edited = edit_model_header(MODEL_V2, tmp_path / "edited.wrice", edit, rehash=True)
        with pytest.raises(CorruptModelError, match="malformed model file"):
            load_model(edited)

    def test_an_edited_value_in_the_form_wrice_writes_loads(self, tmp_path):
        # the byte rule refuses a spelling, not a value: with the checksum
        # recomputed, this header is one that `save_model` could have written
        edited = edit_model_header(MODEL_V2, tmp_path / "edited.wrice",
                                   lambda h: h["audio"].update(segment_seconds=2.0),
                                   rehash=True)
        assert load_model(edited).extraction.segment_seconds == 2.0

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(features=None), id="features-null"),
        pytest.param(lambda h: h.update(stft=None), id="stft-null"),
        pytest.param(lambda h: h["audio"].update(segment_seconds=None), id="segment-null"),
        pytest.param(lambda h: h["audio"].update(sample_rate=None), id="rate-null"),
    ])
    def test_partial_extraction_settings_are_corrupt(self, tmp_path, edit):
        save_model(self.make_model(), tmp_path / "model.wrice")
        with pytest.raises(CorruptModelError, match="malformed model file"):
            load_model(edit_model_header(tmp_path / "model.wrice", tmp_path / "edited.wrice",
                                         edit))

    # every model carries all of its bundle; no section may be null
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(scaler=None), id="scaler-null"),
        pytest.param(lambda h: h.update(label_map=None), id="label-map-null"),
        pytest.param(lambda h: h.update(stft=None, features=None,
                                        audio={"sample_rate": None, "segment_seconds": None}),
                     id="extraction-null"),
    ])
    def test_null_bundle_section_is_corrupt(self, tmp_path, edit):
        save_model(self.make_model(), tmp_path / "model.wrice")
        with pytest.raises(CorruptModelError, match="malformed model file"):
            load_model(edit_model_header(tmp_path / "model.wrice", tmp_path / "edited.wrice",
                                         edit))

    # the checksum is recomputed, so only the width check can refuse them
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(label_map=h["label_map"][:1]), id="one-label"),
        pytest.param(lambda h: h.update(scaler={"mean": [0.0, 1.0, 2.0, 3.0, 4.0],
                                                "std": [1.5] * 5}), id="5-wide-scaler"),
    ])
    def test_bundle_narrower_or_wider_than_the_layers_is_corrupt(self, tmp_path, edit):
        edited = edit_model_header(MODEL_V2, tmp_path / "edited.wrice", edit, rehash=True)
        with pytest.raises(CorruptModelError,
                           match=r"malformed model file .*layer_dims \[4, 5, 3\] need"):
            load_model(edited)

    # the right length, so only the entry check can refuse them
    @pytest.mark.parametrize("label_map", [["p", "p", "r"], "pqr", [1, 2, 3]],
                             ids=["duplicate", "string", "numbers"])
    def test_label_map_of_other_than_distinct_names_is_corrupt(self, tmp_path, label_map):
        edited = edit_model_header(MODEL_V2, tmp_path / "edited.wrice",
                                   lambda h: h.update(label_map=label_map), rehash=True)
        with pytest.raises(CorruptModelError,
                           match=r"malformed model file .*list of distinct names"):
            load_model(edited)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_not_saved(self, tmp_path, bad):
        model = self.make_model()
        model.biases[1][0] = bad  # as an in-place update in `train` could leave it
        path = tmp_path / "model.wrice"
        with pytest.raises(NonFiniteError):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("where", [0, _ADAM_BLOCK + 1, -1],
                             ids=["first", "second-block", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_parameter_in_any_block_is_refused(self, tmp_path, where, bad):
        # the finiteness checks run block by block; paper4's 541,188
        # parameters end in a partial block
        model = paper4_model()
        params = model.params.copy()
        params[where] = bad
        with pytest.raises(ValueError, match="^params holds non-finite values$"):
            MlpModel(model.layer_dims, params, model.scaler, model.label_map,
                     model.extraction)
        model.params[where] = bad
        path = tmp_path / "model.wrice"
        with pytest.raises(NonFiniteError,
                           match=f"^{re.escape(str(path))}: model has non-finite "
                                 "parameters; not saved$"):
            save_model(model, path)
        assert not path.exists()

    def test_save_copies_no_body(self, tmp_path):
        model = paper4_model()
        peak = traced_peak(lambda: save_model(model, tmp_path / "paper4.wrice"))
        # slack only: no copy of the body, and no bool per parameter for the
        # finiteness check (541,188 bytes)
        bound = 2**17
        assert peak <= bound, f"peak {peak / 2**10:.0f} KiB, bound {bound / 2**10:.0f} KiB"

    def test_construction_builds_nothing_parameter_long(self):
        model = paper4_model()
        peak = traced_peak(lambda: MlpModel(model.layer_dims, model.params, model.scaler,
                                            model.label_map, model.extraction))
        bound = 2**17  # slack, far below one bool per parameter
        assert peak <= bound, f"peak {peak / 2**10:.0f} KiB, bound {bound / 2**10:.0f} KiB"

    def test_load_copies_no_body(self, tmp_path):
        model = paper4_model()
        path = tmp_path / "paper4.wrice"
        save_model(model, path)
        peak = traced_peak(lambda: load_model(path))
        # the loaded params and header slack: the body is read into them,
        # not held as bytes beside them
        bound = model.params.nbytes + 2**17
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    def test_save_is_deterministic(self, tmp_path):
        model = self.make_model()
        save_model(model, tmp_path / "a.wrice")
        save_model(model, tmp_path / "b.wrice")
        assert (tmp_path / "a.wrice").read_bytes() == (tmp_path / "b.wrice").read_bytes()

    def test_wrong_version_field(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        raw = path.read_bytes()
        head, _, tail = raw.partition(b"\n")
        path.write_bytes(head.replace(f'"version": {MODEL_VERSION}'.encode(),
                                      f'"version": {MODEL_VERSION + 1}'.encode())
                         + b"\n" + tail)
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_version_1_text_file_must_be_retrained(self, tmp_path):
        # the version-1 layout: one line of .17g text per tensor after the header
        model = self.make_model()
        lines = [" ".join(format(v, ".17g") for v in t.ravel()) for t in tensors(model)]
        header = {"format": "wrice-model", "version": 1, "layer_dims": model.layer_dims,
                  "tensors": [{"name": f"t{i}", "shape": list(t.shape)}
                              for i, t in enumerate(tensors(model))]}
        path = tmp_path / "model.wrice"
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + ("\n".join(lines) + "\n").encode())
        with pytest.raises(VersionMismatchError, match="model version 1,.*wrice train"):
            load_model(path)

    def test_body_is_raw_little_endian_float64_in_parameter_order(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        assert body == b"".join(p.astype("<f8").tobytes() for p in tensors(model))
        assert body == model.params.astype("<f8").tobytes()
        n_params = sum(p.size for p in tensors(model))
        assert len(raw) == len(head) + 1 + 8 * n_params
        assert [t["shape"] for t in json.loads(head)["tensors"]] == \
            [list(p.shape) for p in tensors(model)]

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda body: body[:-8], id="short-by-one-value"),
        pytest.param(lambda body: body + bytes(8), id="one-value-left-over"),
    ])
    def test_body_length_must_match_the_shapes(self, tmp_path, cut):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        head, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(head + b"\n" + cut(body))
        with pytest.raises(CorruptModelError, match="body has"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h["scaler"]["mean"].__setitem__(1, 1.5), id="scaler-mean"),
        pytest.param(lambda h: h["label_map"].reverse(), id="label-map-order"),
        pytest.param(lambda h: h["audio"].update(sample_rate=44100), id="sample-rate"),
    ])
    def test_checksum_covers_the_header(self, tmp_path, edit):
        save_model(self.make_model(), tmp_path / "model.wrice")
        with pytest.raises(CorruptModelError, match="checksum mismatch"):
            load_model(edit_model_header(tmp_path / "model.wrice", tmp_path / "edited.wrice",
                                         edit))

    def test_other_schema_version_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["schema_version"] = SCHEMA_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SchemaMismatchError, match="schema version") as info:
            load_model(path)
        assert str(path) in str(info.value)
        del header["schema_version"]  # a header must name its schema version
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SchemaMismatchError, match="schema version None") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_truncated_file(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.wrice"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_deeply_nested_header_is_unreadable(self, tmp_path):
        # deeper than the JSON decoder recurses
        path = tmp_path / "nested.wrice"
        path.write_bytes(b"[" * 100_000 + b"\n")
        with pytest.raises(CorruptModelError, match="unreadable header"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nonsense.wrice"
        path.write_text("{}\n")
        with pytest.raises(CorruptModelError):
            load_model(path)
