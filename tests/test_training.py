"""Tests for sampling, the hinge loss, Adam, and the training loop."""

import json
import logging
import math

import numpy as np
import pytest

from relrank.autodiff import ParameterSet, Tensor
from relrank.errors import ConfigError, DataError
from relrank.models import Scorer, build_model
from relrank.training import (
    AdamState,
    TrainConfig,
    adam_step,
    pairwise_loss,
    sample_instances,
    train,
)
from relrank.trec import Qrels, ranked_list_from_scores
from support import toy_world


def candidate_list(qid, doc_ids):
    return {qid: ranked_list_from_scores(
        qid, [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)])}


def judged(qid, relevant, nonrelevant):
    qrels = Qrels()
    for d in relevant:
        qrels.add(qid, d, 1)
    for d in nonrelevant:
        qrels.add(qid, d, 0)
    return qrels


class TestSampleInstances:
    def test_unique_pair(self):
        qrels = judged("q1", ["p"], ["n"])
        instances, skipped = sample_instances(
            qrels, candidate_list("q1", ["p", "n"]), np.random.default_rng(0))
        assert skipped == 0
        assert len(instances) == 1
        assert (instances[0].query_id, instances[0].positive,
                instances[0].negative) == ("q1", "p", "n")

    def test_all_relevant_query_skipped(self):
        qrels = Qrels()
        for d in ("a", "b"):
            qrels.add("q1", d, 1)
        qrels.add("q2", "a", 1)
        qrels.add("q2", "b", 0)
        candidates = {**candidate_list("q1", ["a", "b"]),
                      **candidate_list("q2", ["a", "b"])}
        instances, skipped = sample_instances(qrels, candidates,
                                              np.random.default_rng(0))
        assert skipped == 1
        assert all(inst.query_id == "q2" for inst in instances)

    def test_all_nonrelevant_query_skipped(self):
        qrels = judged("q1", [], ["a", "b"])
        qrels.add("q2", "a", 1)
        candidates = {**candidate_list("q1", ["a", "b"]),
                      **candidate_list("q2", ["a", "b"])}
        _, skipped = sample_instances(qrels, candidates,
                                      np.random.default_rng(0))
        assert skipped == 1

    def test_zero_usable_queries_aborts(self):
        qrels = judged("q1", ["a", "b"], [])
        with pytest.raises(DataError, match="no trainable queries"):
            sample_instances(qrels, candidate_list("q1", ["a", "b"]),
                             np.random.default_rng(0))

    def test_one_instance_per_positive(self):
        qrels = judged("q1", ["p1", "p2", "p3"], ["n1", "n2"])
        instances, _ = sample_instances(
            qrels, candidate_list("q1", ["p1", "n1", "p2", "n2", "p3"]),
            np.random.default_rng(1))
        assert [inst.positive for inst in instances] == ["p1", "p2", "p3"]
        assert all(inst.negative in {"n1", "n2"} for inst in instances)

    def test_negative_sampling_is_uniform(self):
        # 10k draws against the multinomial expectation, 3 sigma.
        qrels = judged("q1", ["p"], [f"n{i}" for i in range(5)])
        candidates = candidate_list("q1", ["p"] + [f"n{i}" for i in range(5)])
        rng = np.random.default_rng(2)
        counts = {f"n{i}": 0 for i in range(5)}
        draws = 10_000
        for _ in range(draws):
            instances, _ = sample_instances(qrels, candidates, rng)
            counts[instances[0].negative] += 1
        expected = draws / 5
        sigma = math.sqrt(draws * 0.2 * 0.8)
        for count in counts.values():
            assert abs(count - expected) <= 3 * sigma

    def test_seed_reproducibility(self):
        qrels = judged("q1", ["p1", "p2"], ["n1", "n2", "n3"])
        candidates = candidate_list("q1", ["p1", "p2", "n1", "n2", "n3"])
        a, _ = sample_instances(qrels, candidates, np.random.default_rng(9))
        b, _ = sample_instances(qrels, candidates, np.random.default_rng(9))
        assert a == b


class TestPairwiseLoss:
    def test_satisfied_margin(self):
        assert pairwise_loss(Tensor(2.0), Tensor(0.5), 1.0).data == 0.0

    def test_violated_margin(self):
        loss = pairwise_loss(Tensor(0.2), Tensor(0.5), 1.0)
        np.testing.assert_allclose(loss.data, 1.3, atol=1e-12)

    def test_kink_uses_zero_branch(self):
        s_pos = Tensor(1.5)
        s_neg = Tensor(0.5)
        loss = pairwise_loss(s_pos, s_neg, 1.0)
        assert loss.data == 0.0
        loss.backward()
        assert s_pos.grad == 0.0
        assert s_neg.grad == 0.0

    def test_active_gradient_signs(self):
        s_pos = Tensor(0.0)
        s_neg = Tensor(0.5)
        pairwise_loss(s_pos, s_neg, 1.0).backward()
        assert s_pos.grad == -1.0
        assert s_neg.grad == 1.0

    def test_margin_validation(self):
        with pytest.raises(ConfigError, match="margin"):
            pairwise_loss(Tensor(0.0), Tensor(0.0), 0.0)


class TestAdam:
    def params_of(self, *arrays):
        params = ParameterSet()
        for i, arr in enumerate(arrays):
            params.add(f"p{i}", np.asarray(arr, dtype=float))
        return params

    def test_first_step_closed_form(self):
        params = self.params_of(np.zeros(3))
        state = AdamState(params, learning_rate=0.001)
        params["p0"]._grad = np.ones(3)
        assert adam_step(params, state)
        # Bias correction makes both moment estimates exactly 1.
        np.testing.assert_allclose(params["p0"].data, -0.001, rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_never_moves_parameters(self):
        params = self.params_of([1.0, -2.0])
        state = AdamState(params)
        for _ in range(3):
            params.zero_grad()
            assert adam_step(params, state)
        np.testing.assert_array_equal(params["p0"].data, [1.0, -2.0])

    def test_three_step_scalar_trace(self):
        grads = [0.5, -0.2, 0.1]
        params = self.params_of(1.0)
        state = AdamState(params, learning_rate=0.01)
        # Independent float recomputation of the update rule.
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, 1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9 ** t)) / (
                math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        for g in grads:
            params.zero_grad()
            params["p0"]._grad = np.asarray(float(g))
            assert adam_step(params, state)
        np.testing.assert_allclose(float(params["p0"].data), theta, atol=1e-12)

    def test_nan_gradient_rejects_whole_step(self, caplog):
        params = self.params_of([1.0], [2.0])
        state = AdamState(params)
        params["p0"]._grad = np.array([0.5])
        params["p1"]._grad = np.array([np.nan])
        with caplog.at_level(logging.WARNING):
            assert not adam_step(params, state)
        assert "rejected" in caplog.text
        np.testing.assert_array_equal(params["p0"].data, [1.0])
        np.testing.assert_array_equal(params["p1"].data, [2.0])
        assert state.t == 0
        np.testing.assert_array_equal(state.m["p0"], [0.0])

    def test_config_validation(self):
        params = self.params_of([1.0])
        with pytest.raises(ConfigError, match="learning rate"):
            AdamState(params, learning_rate=0.0)
        with pytest.raises(ConfigError, match="decay"):
            AdamState(params, beta1=1.0)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        config = TrainConfig()
        assert config.batch_size == 32
        assert config.margin == 1.0
        assert config.patience == 5
        assert config.epochs == 50

    @pytest.mark.parametrize("kw", [
        {"margin": 0.0}, {"batch_size": 0}, {"epochs": 0},
        {"patience": 0}, {"learning_rate": -1.0}, {"clip_norm": 0.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_serialization_round_trip(self):
        config = TrainConfig(epochs=3, seed=7)
        assert TrainConfig(**config.to_json()) == config


class CountingScorer(Scorer):
    """Test double: linear in the exact-overlap feature, with a call counter
    and an optional poison threshold that turns later scores into NaN."""

    name = "counting"

    def __init__(self, poison_after=None):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))
        self.calls = 0
        self.poison_after = poison_after

    def score(self, pair, doc_state=None, dropout_rng=None):
        self.calls += 1
        if self.poison_after is not None and self.calls > self.poison_after:
            return Tensor(float("nan")) * self.w
        return self.w * float(pair.extra[1])


class FrozenScorer(Scorer):
    """Test double whose score is constant no matter what the weight does."""

    name = "frozen"

    def __init__(self):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))

    def score(self, pair, doc_state=None, dropout_rng=None):
        return self.w * 0.0


class OverflowScorer(Scorer):
    """Test double whose score stays 0 while its gradient overflows to inf,
    which clipping turns into NaN, so Adam rejects every step."""

    name = "overflow"

    def __init__(self):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))

    def score(self, pair, doc_state=None, dropout_rng=None):
        return self.w * 1e200 * 1e200


class TestTrainLoop:
    def small_config(self, **kw):
        opts = dict(epochs=4, batch_size=8, learning_rate=0.05, seed=3)
        opts.update(kw)
        return TrainConfig(**opts)

    def test_separable_task_loss_shrinks(self):
        rng = np.random.default_rng(0)
        data = toy_world(rng, n_train=6, n_dev=2, dim=4)
        model = build_model("pooled-drmm", 4, np.random.default_rng(1), k=3)
        result = train(model, data, self.small_config(epochs=10))
        losses = [rec.train_loss for rec in result.log]
        window = 5
        averages = [np.mean(losses[i:i + window])
                    for i in range(len(losses) - window + 1)]
        for earlier, later in zip(averages, averages[1:]):
            assert later <= earlier + 1e-9
        assert losses[-1] < losses[0]
        assert result.rejected_steps == 0

    def test_same_seed_identical_logs_and_checkpoints(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(0)
            data = toy_world(rng, n_train=4, n_dev=2, dim=3)
            model = build_model("pooled-drmm", 3, np.random.default_rng(1), k=2)
            results.append(train(model, data, self.small_config()))
        a, b = results
        assert a.log_lines() == b.log_lines()
        for name, tensor in a.best_params.items():
            np.testing.assert_array_equal(tensor.data,
                                          b.best_params[name].data)

    def test_best_checkpoint_is_dev_map_argmax(self):
        rng = np.random.default_rng(5)
        data = toy_world(rng, n_train=5, n_dev=3, dim=3)
        model = build_model("pooled-drmm", 3, np.random.default_rng(2), k=2)
        result = train(model, data, self.small_config(epochs=6))
        maps = [rec.dev_map for rec in result.log]
        assert result.best_dev_map == max(maps)
        assert result.best_epoch == maps.index(max(maps)) + 1

    def test_zero_loss_batches_freeze_parameters(self):
        rng = np.random.default_rng(6)
        data = toy_world(rng, with_extra=True)
        model = build_model("bm25-extra", 4, np.random.default_rng(0))
        # Exact-overlap weight 100 separates every pair by far more than
        # the margin, so every batch loss is exactly zero.
        model.params["combine.w_extra"].data[:] = [0.0, 100.0, 0.0, 0.0]
        before = {n: t.data.copy() for n, t in model.params.items()}
        result = train(model, data, self.small_config(epochs=3))
        assert all(rec.train_loss == 0.0 for rec in result.log)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_early_stopping_on_flat_dev_map(self):
        rng = np.random.default_rng(7)
        data = toy_world(rng, with_extra=True)
        model = FrozenScorer()  # constant scores: dev MAP cannot move
        result = train(model, data, self.small_config(epochs=20, patience=2))
        assert result.stopped_early
        assert len(result.log) == 3  # first epoch sets the best, two stale
        assert result.best_epoch == 1

    def test_divergence_keeps_last_good_checkpoint(self):
        rng = np.random.default_rng(8)
        data = toy_world(rng, with_extra=True)
        config = self.small_config(epochs=5, patience=5)
        probe = CountingScorer()
        probe_result = train(probe, data, config)
        per_epoch = probe.calls // len(probe_result.log)
        model = CountingScorer(poison_after=per_epoch + 1)
        result = train(model, data, config)
        assert result.diverged
        assert len(result.log) == 1
        assert result.best_epoch == 1
        assert np.isfinite(result.best_dev_map)

    def test_immediate_divergence_returns_initial_params(self):
        rng = np.random.default_rng(9)
        data = toy_world(rng, with_extra=True)
        model = CountingScorer(poison_after=0)
        result = train(model, data, self.small_config())
        assert result.diverged
        assert result.log == []
        assert result.best_epoch == 0
        assert math.isnan(result.best_dev_map)
        np.testing.assert_array_equal(result.best_params["w"].data, 0.0)

    def test_log_lines_are_clean_json(self, tmp_path):
        rng = np.random.default_rng(10)
        data = toy_world(rng, with_extra=True)
        model = CountingScorer()
        path = tmp_path / "train.log"
        result = train(model, data, self.small_config(epochs=2, patience=5),
                       log_path=path)
        on_disk = path.read_text()
        assert on_disk == result.log_lines()
        assert len(on_disk.splitlines()) == 2
        for line in on_disk.splitlines():
            record = json.loads(line)
            assert set(record) == {"epoch", "train_loss", "dev_map"}

    def test_skipped_queries_surface_in_result(self):
        rng = np.random.default_rng(11)
        data = toy_world(rng, with_extra=True)
        patched = Qrels()
        for qid, did, rel in data.train_qrels.items():
            patched.add(qid, did, 1 if qid == "q0" else rel)
        data.train_qrels = patched
        result = train(CountingScorer(), data,
                       self.small_config(epochs=1, patience=5))
        assert result.skipped_queries == 1

    def test_rejected_steps_counted_and_parameters_kept(self):
        rng = np.random.default_rng(12)
        data = toy_world(rng, with_extra=True)
        instances, _ = sample_instances(data.train_qrels,
                                        data.train_candidates, rng)
        config = self.small_config(epochs=2, patience=5)
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(OverflowScorer(), data, config)
        batches = -(-len(instances) // config.batch_size)
        assert not result.diverged
        assert len(result.log) == 2
        assert all(rec.train_loss == 1.0 for rec in result.log)
        assert result.rejected_steps == 2 * batches
        np.testing.assert_array_equal(result.best_params["w"].data, 0.0)

