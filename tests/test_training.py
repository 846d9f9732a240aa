"""Tests for sampling, the hinge loss, Adam, and the training loop."""

import dataclasses
import gc
import json
import logging
import math

import numpy as np
import pytest

from relrank import training
from relrank.autodiff import ParameterSet, Tensor, stack
from relrank.encoder import BiRnnEncoder, LstmCell
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
from support import toy_world, zero_encoder


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
            TrainConfig(margin=0.0)


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
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(learning_rate=0.0)


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

    @pytest.mark.parametrize("kw,message", [
        ({"epochs": True}, "training.epochs must be an integer, got True"),
        ({"patience": 2.5}, "training.patience must be an integer"),
        ({"clip_norm": "5"}, "training.clip_norm must be a number"),
        ({"seed": 1.0}, "seed must be an integer"),
    ])
    def test_rejects_values_of_another_type(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**kw)

    @pytest.mark.parametrize("key", ["margin", "learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_numbers(self, key, value):
        with pytest.raises(ConfigError) as info:
            TrainConfig(**{key: value})
        assert str(info.value) == (
            f"training.{key} must be a finite number, got {value!r}")

    def test_integer_learning_rate_is_a_number(self):
        assert TrainConfig(learning_rate=1, margin=2).learning_rate == 1

    def test_serialization_round_trip(self):
        config = TrainConfig(epochs=3, seed=7)
        assert TrainConfig(**dataclasses.asdict(config)) == config


class PerPairScorer(Scorer):
    """Test-double base: a batch's scores are its pairs' ``score``s."""

    def score_batch(self, pairs, contexts=None):
        return stack([self.score(pair) for pair in pairs])


class CountingScorer(PerPairScorer):
    """Test double: linear in the exact-overlap feature, with a call counter
    and an optional poison threshold that turns later scores into NaN."""

    name = "counting"

    def __init__(self, poison_after=None):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))
        self.calls = 0
        self.poison_after = poison_after

    def score(self, pair, context=None):
        self.calls += 1
        if self.poison_after is not None and self.calls > self.poison_after:
            return Tensor(float("nan")) * self.w
        return self.w * float(pair.extra[1])


class FrozenScorer(PerPairScorer):
    """Test double whose score is constant no matter what the weight does."""

    name = "frozen"

    def __init__(self):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))

    def score(self, pair, context=None):
        return self.w * 0.0


class OverflowScorer(PerPairScorer):
    """Test double whose score stays 0 while its gradient overflows to inf,
    which clipping turns into NaN, so Adam rejects every step."""

    name = "overflow"

    def __init__(self):
        super().__init__()
        self.w = self.params.add("w", np.zeros(()))

    def score(self, pair, context=None):
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

    def test_log_lines_are_clean_json(self):
        rng = np.random.default_rng(10)
        data = toy_world(rng, with_extra=True)
        model = CountingScorer()
        result = train(model, data, self.small_config(epochs=2, patience=5))
        text = result.log_lines()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 2
        for line, rec in zip(lines, result.log):
            record = json.loads(line)
            assert record == rec.to_json()
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


class TestGraphLifetime:
    @pytest.mark.parametrize("name", ["pacrr", "pooled-drmm-mv"])
    def test_train_step_leaves_no_cyclic_garbage(self, name):
        # A backward rule that captured its output tensor would make every
        # training graph a reference cycle that only the collector frees.
        data = toy_world(np.random.default_rng(13), with_extra=True)
        model = build_model(name, 4, np.random.default_rng(0),
                            extra_features=True)
        adam = AdamState(model.params)
        rng = np.random.default_rng(1)
        inst = sample_instances(data.train_qrels, data.train_candidates,
                                rng)[0][0]
        pos = data.builder.pair(inst.query_id, inst.positive)
        neg = data.builder.pair(inst.query_id, inst.negative)
        gc.disable()
        try:
            gc.collect()
            model.params.zero_grad()
            scores = model.score_batch(
                [pos, neg], model.contexts([pos, neg], dropout_rng=rng))
            loss = pairwise_loss(scores[0::2], scores[1::2], 1.0).sum()
            loss.backward()
            assert adam_step(model.params, adam)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def batch_pairs(data, rng):
    """One epoch's instances as training lays them out: positive, then
    negative, per instance, in the shuffled order."""
    instances, _ = sample_instances(data.train_qrels, data.train_candidates, rng)
    pairs = []
    for index in rng.permutation(len(instances)):
        inst = instances[index]
        pairs += [data.builder.pair(inst.query_id, inst.positive),
                  data.builder.pair(inst.query_id, inst.negative)]
    return pairs


class TestBatchedContexts:
    """A minibatch's contexts come from one encoder pass over its distinct
    sequences; gradients, dropout draws and step counts are the per-pair
    path's."""

    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("name", ["pooled-drmm-mv", "attn-drmm-mv"])
    def test_batch_gradients_are_the_sum_of_per_pair_gradients(self, name,
                                                               trainable):
        data = toy_world(np.random.default_rng(40), with_extra=True)
        model = build_model(name, 4, np.random.default_rng(41),
                            extra_features=True, emb_matrix=data.builder.emb,
                            trainable_embeddings=trainable)
        pairs = batch_pairs(data, np.random.default_rng(42))
        assert len({p.query_id for p in pairs}) < len(pairs)  # shared queries
        weights = np.random.default_rng(43).standard_normal(len(pairs))
        model.params.zero_grad()
        contexts = model.contexts(pairs)
        sum(model.score(p, c) * w
            for p, c, w in zip(pairs, contexts, weights)).backward()
        batched = {n: t.grad.copy() for n, t in model.params.items()}
        model.params.zero_grad()
        for pair, w in zip(pairs, weights):
            (model.score(pair) * w).backward()  # leaf grads add up
        if trainable:
            assert np.abs(batched["embeddings"]).max() > 0.0
        for n, t in model.params.items():
            np.testing.assert_allclose(batched[n], t.grad, rtol=0, atol=1e-12,
                                       err_msg=n)

    def test_each_distinct_sequence_is_encoded_once(self, monkeypatch):
        calls = []
        original = BiRnnEncoder.encode_batch

        def recorded(self, xs, dropout_rng=None):
            calls.append(len(xs))
            return original(self, xs, dropout_rng)

        monkeypatch.setattr(BiRnnEncoder, "encode_batch", recorded)
        data = toy_world(np.random.default_rng(44), with_extra=True)
        model = build_model("attn-drmm", 4, np.random.default_rng(45),
                            extra_features=True)
        pairs = batch_pairs(data, np.random.default_rng(46))
        contexts = model.contexts(pairs)
        distinct = ({p.query_id for p in pairs}, {p.doc_id for p in pairs})
        assert calls == [len(distinct[0]) + len(distinct[1])]
        assert calls[0] < 2 * len(pairs)
        shared = {}
        for pair, (q_ctx, d_ctx) in zip(pairs, contexts):
            assert q_ctx is shared.setdefault(pair.query_id, q_ctx)
            np.testing.assert_array_equal(
                d_ctx.data, model.encoder.encode(Tensor(pair.d.emb)).data)
            np.testing.assert_array_equal(
                q_ctx.data, model.encoder.encode(Tensor(pair.q.emb)).data)

    def test_dropout_masks_are_drawn_per_pair_query_then_document(
            self, monkeypatch):
        # With the recurrent cells at zero every context is [x ; x] for the
        # masked input x, so the first batch's contexts show its masks.
        outputs = []
        original = BiRnnEncoder.encode_batch

        def recorded(self, xs, dropout_rng=None):
            out = original(self, xs, dropout_rng)
            if dropout_rng is not None:
                outputs.append([o.data.copy() for o in out])
            return out

        monkeypatch.setattr(BiRnnEncoder, "encode_batch", recorded)
        monkeypatch.setattr(training, "dev_map", lambda model, data: 0.0)
        data = toy_world(np.random.default_rng(47), with_extra=True)
        model = build_model("pooled-drmm-mv", 4, np.random.default_rng(48),
                            extra_features=True, dropout=0.4)
        zero_encoder(model)
        config = TrainConfig(epochs=1, batch_size=64, seed=5)
        train(model, data, config)
        # The reference: q+, d+, q-, d- per instance, from the same stream.
        rng = np.random.default_rng(config.seed)
        want = []
        for pair in batch_pairs(data, rng):
            for x in (pair.q.emb, pair.d.emb):
                want.append(x * ((rng.random(x.shape) >= 0.4) / (1.0 - 0.4)))
        assert len(outputs) == 1 and len(outputs[0]) == len(want)
        for got, x in zip(outputs[0], want):
            np.testing.assert_array_equal(got, np.concatenate([x, x], axis=1))
        assert any((x == 0.0).any() for x in want)

    def test_one_batch_steps_its_longest_sequence(self, monkeypatch):
        calls = []
        original = LstmCell.step

        def counted(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(LstmCell, "step", counted)
        monkeypatch.setattr(training, "dev_map", lambda model, data: 0.0)
        data = toy_world(np.random.default_rng(49), with_extra=True)
        model = build_model("attn-drmm-mv", 4, np.random.default_rng(50),
                            extra_features=True)
        config = TrainConfig(epochs=1, batch_size=64, seed=6)
        train(model, data, config)
        pairs = batch_pairs(data, np.random.default_rng(config.seed))
        longest = max(max(len(p.q.emb), len(p.d.emb)) for p in pairs)
        tokens = sum(len(p.q.emb) + len(p.d.emb) for p in pairs)
        assert longest < tokens
        for cell in (model.encoder.forward_cell, model.encoder.backward_cell):
            assert calls.count(cell) == longest
