import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab import trainer
from aurelab.aux_branch import AuxiliaryBranch
from aurelab.data import corrupt_labels, generate, train_test_split
from aurelab.errors import ConfigError, TrainingDivergedError
from aurelab.experiments import (DatasetSpec, load_spec, make_cell_datasets,
                                 run_cell)
from aurelab.target_branch import TargetBranch
from aurelab.trainer import (Checkpoint, TrainConfig, evaluate,
                             load_checkpoint, ramp_weights, save_checkpoint,
                             total_loss, train, trained_parameters)
import tape_kit as tk
from oracles import (nearest_prototype_accuracy, scalar_correction_figures,
                     scalar_ramp_weights)

FAST = TrainConfig(epochs=4, batch_size=32, warmup_epochs=2, ramp_pivot=2,
                   hidden_dim=16, feat_dim=8, node_dim=4, gcn_channels=8,
                   lr_initial=0.05, lr_drops=((3, 5e-3),), lr_aux=0.01,
                   momentum=0.0, seed=0)


def tiny_ds(seed=3, n=90, corruption=0.2):
    ds = generate(3, 6, 8, n, 4.0, 1.0, seed=seed)
    if corruption:
        ds = corrupt_labels(ds, corruption, seed=seed + 1)
    return ds


class TestRampWeights:
    def test_both_weights_one_at_pivot(self):
        t, a = ramp_weights(10, 10)
        assert t == 1.0 and a == 1.0

    def test_half_pivot_closed_form(self):
        t, a = ramp_weights(5, 10)
        assert t == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert a == 1.0

    def test_double_pivot_closed_form(self):
        t, a = ramp_weights(20, 10)
        assert t == 1.0
        assert a == pytest.approx(math.exp(-0.25), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            ramp_weights(0, 10)
        with pytest.raises(ConfigError):
            ramp_weights(1, 0)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(min_value=1, max_value=200),
                      st.integers(min_value=1, max_value=50))
    def test_bounds_monotonicity_and_oracle(self, epoch, pivot):
        t, a = ramp_weights(epoch, pivot)
        ot, oa = scalar_ramp_weights(epoch, pivot)
        assert t == pytest.approx(ot) and a == pytest.approx(oa)
        assert 0.0 < t <= 1.0 and 0.0 < a <= 1.0
        if epoch <= pivot:
            t_prev, _ = ramp_weights(max(epoch - 1, 1), pivot)
            assert t >= t_prev
        if epoch > pivot:
            _, a_prev = ramp_weights(epoch - 1, pivot)
            assert a <= a_prev or epoch - 1 <= pivot


class TestTotalLoss:
    def test_documented_arithmetic(self):
        got = total_loss(ad.scalar(2.0), ad.scalar(0.1), ad.scalar(1.0),
                         1.0, 1.0)
        assert got.item() == pytest.approx(2.05, abs=1e-12)

    def test_zero_aux_weight(self):
        got = total_loss(ad.scalar(2.0), ad.scalar(0.5), ad.scalar(9.9),
                         0.8, 0.0)
        assert got.item() == pytest.approx(0.4 * 2.5, abs=1e-12)

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.standard_normal((2, 2)), "w")

        def loss_fn():
            a = ad.total_sum(tk.mul(w, w))
            b = ad.total_sum(ad.sigmoid(w))
            c = tk.mean_all(w)
            return total_loss(a, b, c, 0.7, 0.3)

        assert tk.check_gradients(loss_fn, [w]).max_rel_error < 1e-6


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        ds = tiny_ds()
        cfg = replace(FAST, epochs=0)
        result = train(ds, cfg)
        assert result.metrics == []
        assert result.records == []
        fresh = train(ds, cfg)
        for name, tensor in result.model.parameters().items():
            assert tensor.data.tobytes() == \
                fresh.model.parameters()[name].data.tobytes()

    def test_deterministic_given_seed(self):
        ds = tiny_ds()
        a = train(ds, FAST)
        b = train(ds, FAST)
        for name, tensor in a.model.parameters().items():
            assert tensor.data.tobytes() == \
                b.model.parameters()[name].data.tobytes()
        assert len(a.metrics) == len(b.metrics)
        for ma, mb in zip(a.metrics, b.metrics):
            assert ma.loss_total == mb.loss_total
            assert ma.accuracy == mb.accuracy

    def test_input_dataset_not_mutated(self):
        ds = tiny_ds()
        before = ds.observed_labels.copy()
        train(ds, replace(FAST, epochs=3, warmup_epochs=1))
        assert np.array_equal(ds.observed_labels, before)

    def test_zero_learning_rate_freezes_parameters(self):
        ds = tiny_ds()
        cfg = replace(FAST, epochs=2, lr_initial=1e-300, lr_aux=1e-300,
                      lr_drops=())
        result = train(ds, cfg)
        fresh = train(ds, replace(cfg, epochs=0))
        for name, tensor in result.model.parameters().items():
            np.testing.assert_allclose(
                tensor.data, fresh.model.parameters()[name].data, atol=1e-290)

    def test_nan_abort_with_diagnostics(self):
        ds = tiny_ds()
        bad = replace(FAST, lr_initial=1e18, epochs=3, lr_drops=())
        with pytest.warns(RuntimeWarning), \
                pytest.raises(TrainingDivergedError) as err:
            train(ds, bad)
        assert err.value.epoch is not None
        assert set(err.value.components) == {"wce", "rank", "au", "total"}

    def test_relabeling_waits_for_warmup(self):
        ds = tiny_ds()
        result = train(ds, replace(FAST, epochs=4, warmup_epochs=2))
        assert all(r.epoch > 2 for r in result.records)
        early = train(ds, replace(FAST, epochs=2, warmup_epochs=2))
        assert early.records == []

    def test_zero_norm_semantics_warn_and_are_skipped(self, monkeypatch):
        ds = tiny_ds(n=150)
        zeroed = set(range(0, ds.n, 3))
        batch_ids = []
        real_batches = trainer.batches
        real_logits = AuxiliaryBranch.semantic_logits

        def recording_batches(dataset, *args):
            for idx in real_batches(dataset, *args):
                batch_ids[:] = idx
                yield idx

        def zeroing_logits(self, features, adjacency):
            probs, logits = real_logits(self, features, adjacency)
            sem = logits.data.copy()
            sem[np.isin(batch_ids, list(zeroed))] = 0.0
            return probs, ad.constant(sem)

        monkeypatch.setattr(trainer, "batches", recording_batches)
        monkeypatch.setattr(AuxiliaryBranch, "semantic_logits", zeroing_logits)
        with pytest.warns(UserWarning, match="zero-norm semantics") as caught:
            result = train(ds, replace(FAST, epochs=4))
        warned = {int(re.search(r"sample (\d+):", str(w.message)).group(1))
                  for w in caught if "zero-norm" in str(w.message)}
        assert warned and warned <= zeroed
        assert result.records
        assert not zeroed & {r.sample_id for r in result.records}

    @pytest.mark.parametrize("use_target,use_aux", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_one_sample_batch_in_every_configuration(self, use_target,
                                                     use_aux):
        # 97 = 48 + 48 + 1: every epoch ends with a batch whose low group
        # is empty, so the hinge is skipped and the relabel step sees no one
        cfg = replace(FAST, batch_size=48, warmup_epochs=1,
                      use_target_branch=use_target, use_aux_branch=use_aux)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = train(tiny_ds(n=97), cfg)
        assert [m.epoch for m in result.metrics] == [1, 2, 3, 4]
        assert all(math.isfinite(m.loss_total) for m in result.metrics)
        skipped = [w for w in caught if "fewer than 2" in str(w.message)]
        assert len(skipped) == (cfg.epochs if use_target else 0)
        assert bool(result.records) == use_aux

    def test_disabled_aux_branch_never_relabels(self):
        ds = tiny_ds()
        result = train(ds, replace(FAST, use_aux_branch=False,
                                   warmup_epochs=0))
        assert result.records == []
        assert all(m.loss_au == 0.0 for m in result.metrics)
        assert not result.model.templates.valid.any()

    def test_disabled_target_branch_freezes_confidence_head(self):
        ds = tiny_ds()
        result = train(ds, replace(FAST, use_target_branch=False))
        fresh = train(ds, replace(FAST, epochs=0, use_target_branch=False))
        got = result.model.target.confidence_w.data
        init = fresh.model.target.confidence_w.data
        assert got.tobytes() == init.tobytes()
        assert all(m.loss_rank == 0.0 for m in result.metrics)

    def test_detection_only_builds_no_hinge(self, monkeypatch):
        ds = tiny_ds()
        cfg = replace(FAST, use_target_branch=False, warmup_epochs=1)

        def no_hinge(*args):
            raise AssertionError("the hinge was built")

        monkeypatch.setattr(trainer, "rank_regularization", no_hinge)
        result = train(ds, cfg)
        assert result.model.templates.valid.any()
        assert sum(m.relabel_count for m in result.metrics) > 0

    @pytest.mark.parametrize("use_target,use_aux", [
        (True, True), (True, False), (False, True), (False, False)])
    def test_untrained_parameters_have_zero_gradient_and_stay_put(
            self, monkeypatch, use_target, use_aux):
        ds = tiny_ds()
        cfg = replace(FAST, momentum=0.8, use_target_branch=use_target,
                      use_aux_branch=use_aux)
        models, moved = [], set()
        real_init, real_gradients = trainer.init_model, ad.gradients

        def recording_init(*args):
            models.append(real_init(*args))
            return models[-1]

        def recording_gradients(loss, params):
            every = models[-1].parameters()
            for name, g in zip(every, real_gradients(loss,
                                                     list(every.values()))):
                if np.any(g != 0.0):
                    moved.add(name)
            return real_gradients(loss, params)

        monkeypatch.setattr(trainer, "init_model", recording_init)
        monkeypatch.setattr(trainer.ad, "gradients", recording_gradients)
        result = train(ds, cfg)
        monkeypatch.undo()
        trained = set(trained_parameters(result.model, cfg))
        assert moved and moved <= trained
        init = train(ds, replace(cfg, epochs=0)).model.parameters()
        assert init.keys() - trained == (
            (set() if use_aux else set(result.model.aux.parameters())) |
            (set() if use_target else {"target.confidence_w"}))
        ckpt = result.checkpoint
        assert ckpt.params.keys() == ckpt.velocities.keys() == init.keys()
        for name in init.keys() - trained:
            assert ckpt.params[name].tobytes() == init[name].data.tobytes()
            assert not ckpt.velocities[name].any()

    @pytest.mark.parametrize("both", [True, False])
    def test_no_tape_outlives_its_step(self, monkeypatch, both):
        # A Tensor takes no weak reference but its data array does.  Each
        # step's loss array, and with it the step's tape, must be gone when
        # the next forward pass starts: the next step's or an evaluation's.
        ds = tiny_ds()
        cfg = replace(FAST, warmup_epochs=1, use_target_branch=both,
                      use_aux_branch=both)
        losses, alive_at = [], []
        real_total_loss = trainer.total_loss
        real_features = TargetBranch.features

        def recording_total_loss(*args):
            loss = real_total_loss(*args)
            losses.append(weakref.ref(loss.data))
            return loss

        def checking_features(self, inputs):
            if losses and losses[-1]() is not None:
                alive_at.append(len(losses))
            return real_features(self, inputs)

        monkeypatch.setattr(trainer, "total_loss", recording_total_loss)
        monkeypatch.setattr(TargetBranch, "features", checking_features)
        result = train(ds, cfg)
        assert len(losses) == cfg.epochs * math.ceil(ds.n / cfg.batch_size)
        assert alive_at == [], f"a tape outlived steps {alive_at}"
        assert all(ref() is None for ref in losses)
        assert bool(result.records) == both

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap setting is glibc's")
    def test_repeated_training_keeps_the_heap(self):
        # Without the top pad every protocol-width step gives its buffers
        # back and faults them in again: over 100 minor page faults a step.
        # With it a repeated cell takes next to none; the least of three
        # repeats is taken because a run that raises the heap's high-water
        # mark faults in its new pages once.  The cells run in a fresh
        # interpreter: after a failed huge allocation in the same process
        # (as tests of MemoryError handling make) the pad was seen not to
        # hold.
        code = """if True:
            import json, math, resource
            from aurelab.experiments import DatasetSpec, make_cell_datasets
            from aurelab.trainer import TrainConfig, train
            train_ds, test_ds = make_cell_datasets(DatasetSpec(n=500), 0.2, 0)
            cfg = TrainConfig(epochs=4)
            steps = cfg.epochs * math.ceil(train_ds.n / cfg.batch_size)
            train(train_ds, cfg, eval_dataset=test_ds)
            faults = []
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                train(train_ds, cfg, eval_dataset=test_ds)
                faults.append(resource.getrusage(resource.RUSAGE_SELF)
                              .ru_minflt - before)
            print(json.dumps([faults, steps]))
        """
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(trainer.__file__)))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults, steps = json.loads(proc.stdout)
        assert min(faults) < steps, (faults, steps)

    def test_lr_schedule(self):
        cfg = TrainConfig(lr_initial=0.01, lr_drops=((10, 1e-3), (20, 1e-4)),
                          lr_aux=0.005, lr_aux_decay=0.95)
        assert cfg.lr_target(1) == 0.01
        assert cfg.lr_target(9) == 0.01
        assert cfg.lr_target(10) == 1e-3
        assert cfg.lr_target(20) == 1e-4
        assert cfg.lr_aux_at(1) == 0.005
        assert cfg.lr_aux_at(2) == pytest.approx(0.005 * 0.95)

    def test_metrics_noise_rate_tracks_corrections(self):
        ds = tiny_ds(n=150)
        result = train(ds, replace(FAST, epochs=6))
        assert result.metrics[0].noise_rate == pytest.approx(
            ds.observed_noise_rate())
        final = result.final_dataset.observed_noise_rate()
        assert result.metrics[-1].noise_rate == pytest.approx(final)


class TestEvaluate:
    def test_confusion_trace_equals_accuracy(self):
        ds = tiny_ds(corruption=0)
        result = train(ds, FAST)
        report = evaluate(result.model, ds)
        assert np.trace(report.confusion) / ds.n == pytest.approx(
            report.accuracy)
        assert report.confusion.sum() == ds.n

    def test_confusion_rows_sum_to_class_counts(self):
        ds = tiny_ds(corruption=0)
        report = evaluate(train(ds, FAST).model, ds)
        counts = np.bincount(ds.observed_labels, minlength=3)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), counts)

    def test_side_effect_free(self):
        ds = tiny_ds()
        model = train(ds, FAST).model
        before = ds.observed_labels.copy()
        evaluate(model, ds)
        assert np.array_equal(ds.observed_labels, before)

    def test_close_to_nearest_prototype_oracle_on_easy_data(self):
        ds = generate(3, 6, 8, 240, 4.0, 0.5, seed=9)
        train_ds, test_ds = train_test_split(ds, 0.25, seed=2)
        cfg = replace(FAST, epochs=12, warmup_epochs=12, batch_size=16,
                      lr_drops=((10, 5e-3),), momentum=0.8)
        model = train(train_ds, cfg).model
        acc = evaluate(model, test_ds).accuracy
        assert acc >= nearest_prototype_accuracy(test_ds) - 0.05


def test_run_cell_figures_match_independent_evaluation():
    spec = DatasetSpec(n_classes=3, n_units=6, dim=8, n=160,
                       test_fraction=0.25)
    cell = run_cell(spec, FAST, 0.3, seed=1)
    train_ds, test_ds = make_cell_datasets(spec, 0.3, 1)
    final = cell.result.final_dataset
    assert cell.result.records
    assert cell.accuracy == evaluate(cell.result.model, test_ds).accuracy
    assert cell.final_noise_rate == float(np.mean(
        final.observed_labels != final.true_labels))
    np.testing.assert_array_equal(
        (cell.relabel_precision, cell.relabel_recall),
        scalar_correction_figures(train_ds.observed_labels.tolist(),
                                  final.observed_labels.tolist(),
                                  train_ds.true_labels.tolist()))


class TestLastEpochEvaluation:
    """``evaluate_each_epoch=False`` evaluates only the last epoch, and
    ``run_cell`` asks for it."""

    def test_run_cell_evaluates_once(self, monkeypatch):
        calls = []
        real_evaluate = trainer.evaluate

        def counting_evaluate(*args):
            calls.append(args)
            return real_evaluate(*args)

        monkeypatch.setattr(trainer, "evaluate", counting_evaluate)
        spec = DatasetSpec(n_classes=3, n_units=6, dim=8, n=160,
                           test_fraction=0.25)
        cell = run_cell(spec, FAST, 0.3, seed=1)
        assert len(calls) == 1
        assert calls[0][0] is cell.result.model

    @pytest.mark.parametrize("held_out", [False, True])
    def test_skipped_evaluations_change_no_trained_number(self, held_out):
        ds = tiny_ds(n=120)
        eval_ds = tiny_ds(seed=9, corruption=0) if held_out else None
        every = train(ds, FAST, eval_ds)
        last = train(ds, FAST, eval_ds, evaluate_each_epoch=False)
        for a, b in ((every.checkpoint.params, last.checkpoint.params),
                     (every.checkpoint.velocities, last.checkpoint.velocities),
                     (vars(every.checkpoint.templates),
                      vars(last.checkpoint.templates))):
            assert a.keys() == b.keys()
            for name in a:
                assert a[name].tobytes() == b[name].tobytes()
        assert every.records
        assert len(every.records) == len(last.records)
        for ra, rb in zip(every.records, last.records):
            assert (ra.sample_id, ra.original, ra.corrected, ra.epoch) == \
                (rb.sample_id, rb.original, rb.corrected, rb.epoch)
            assert ra.distances.tobytes() == rb.distances.tobytes()
        assert every.final_dataset.observed_labels.tobytes() == \
            last.final_dataset.observed_labels.tobytes()

        assert len(every.metrics) == len(last.metrics) == FAST.epochs
        for f in fields(trainer.EpochMetrics):
            a, b = (getattr(m.metrics[-1], f.name) for m in (every, last))
            assert np.array_equal(a, b, equal_nan=True), f.name
        measured = {"accuracy", "per_class_accuracy", "confusion"}
        for ma, mb in zip(every.metrics[:-1], last.metrics[:-1]):
            assert math.isnan(mb.accuracy)
            assert np.isnan(mb.per_class_accuracy).all()
            assert mb.per_class_accuracy.shape == ma.per_class_accuracy.shape
            assert mb.confusion.dtype == ma.confusion.dtype
            assert np.array_equal(mb.confusion,
                                  np.zeros_like(ma.confusion))
            for f in fields(trainer.EpochMetrics):
                if f.name not in measured:
                    assert np.array_equal(getattr(ma, f.name),
                                          getattr(mb, f.name),
                                          equal_nan=True), f.name


class TestCheckpointing:
    def test_round_trip_file(self, tmp_path):
        ds = tiny_ds()
        result = train(ds, FAST)
        path = tmp_path / "ck.json"
        save_checkpoint(result.checkpoint, path)
        back, ckpt = load_checkpoint(path), result.checkpoint
        assert back.epoch == ckpt.epoch
        assert back.config == ckpt.config
        assert back.dataset_hash == ckpt.dataset_hash == ds.fingerprint()
        for stored, loaded in ((ckpt.params, back.params),
                               (ckpt.velocities, back.velocities),
                               (vars(ckpt.templates), vars(back.templates))):
            assert stored.keys() == loaded.keys()
            for name, arr in stored.items():
                assert loaded[name].dtype == arr.dtype
                assert loaded[name].tobytes() == arr.tobytes()
        assert np.array_equal(back.observed_labels, ckpt.observed_labels)

    def test_float_fields_read_json_integers(self, tmp_path):
        ckpt = train(tiny_ds(), replace(FAST, epochs=1, momentum=0.5,
                                        lr_drops=((3, 5e-3),))).checkpoint
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        assert doc["config"]["momentum"] == 0.5
        assert doc["config"]["lr_drops"] == [[3, 5e-3]]
        doc["config"]["momentum"] = 0
        doc["config"]["lr_drops"] = [[3, 1]]
        path.write_text(json.dumps(doc))
        config = load_checkpoint(path).config
        assert config == replace(ckpt.config, momentum=0.0,
                                 lr_drops=((3, 1.0),))
        assert type(config.momentum) is float
        assert type(config.lr_drops[0][1]) is float

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        ds = tiny_ds(n=120)
        full_cfg = replace(FAST, epochs=6)
        full = train(ds, full_cfg)

        half = train(ds, replace(FAST, epochs=3))
        path = tmp_path / "ck.json"
        save_checkpoint(half.checkpoint, path)
        resumed = train(ds, full_cfg, resume=load_checkpoint(path))

        for name, tensor in full.model.parameters().items():
            assert tensor.data.tobytes() == \
                resumed.model.parameters()[name].data.tobytes()
        assert [m.epoch for m in resumed.metrics] == [4, 5, 6]
        for mf, mr in zip(full.metrics[3:], resumed.metrics):
            assert mf.loss_total == mr.loss_total
            assert mf.accuracy == mr.accuracy
            assert mf.relabel_count == mr.relabel_count
        assert np.array_equal(full.final_dataset.observed_labels,
                              resumed.final_dataset.observed_labels)

    def test_file_with_a_generator_state_resumes(self, tmp_path):
        # files written before the generator state was dropped still load
        ds = tiny_ds(n=120)
        full_path, half_path = tmp_path / "full.json", tmp_path / "half.json"
        save_checkpoint(train(ds, replace(FAST, epochs=6)).checkpoint,
                        full_path)
        save_checkpoint(train(ds, replace(FAST, epochs=3)).checkpoint,
                        half_path)
        doc = json.loads(half_path.read_text())
        doc["rng_state"] = np.random.PCG64(0).state
        half_path.write_text(json.dumps(doc))
        resumed = train(ds, replace(FAST, epochs=6),
                        resume=load_checkpoint(half_path))
        resumed_path = tmp_path / "resumed.json"
        save_checkpoint(resumed.checkpoint, resumed_path)
        assert resumed_path.read_bytes() == full_path.read_bytes()

    def test_resume_rejects_mismatched_config(self, tmp_path):
        ds = tiny_ds()
        half = train(ds, replace(FAST, epochs=2))
        with pytest.raises(ConfigError):
            train(ds, replace(FAST, epochs=4, high_fraction=0.7),
                  resume=half.checkpoint)

    def test_resume_allows_extending_epochs(self):
        ds = tiny_ds()
        half = train(ds, replace(FAST, epochs=2))
        extended = train(ds, replace(FAST, epochs=3), resume=half.checkpoint)
        assert [m.epoch for m in extended.metrics] == [3]

    def test_resume_to_no_more_epochs_than_the_checkpoint(self):
        ds = tiny_ds()
        half = train(ds, replace(FAST, epochs=2))
        again = train(ds, replace(FAST, epochs=2), resume=half.checkpoint)
        assert again.metrics == [] and again.checkpoint.epoch == 2
        with pytest.raises(ConfigError, match="checkpoint is at epoch 2, "
                           "past the 1 total epochs"):
            train(ds, replace(FAST, epochs=1), resume=half.checkpoint)

    def test_interrupted_write_keeps_previous_file(self, tmp_path,
                                                   monkeypatch):
        ckpt = train(tiny_ds(), replace(FAST, epochs=1)).checkpoint
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(replace(ckpt, epoch=7), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("high_fraction", 0.0), ("high_fraction", 1.0),
        ("rank_margin", -0.1), ("ramp_pivot", 0), ("batch_size", 0),
        ("lr_initial", 0.0), ("lr_aux_decay", 0.0), ("momentum", 1.0),
        ("leaky_slope", 0.0), ("epochs", -1), ("seed", -1),
        ("lr_initial", math.nan), ("lr_initial", math.inf),
        ("lr_aux", math.nan), ("lr_aux", math.inf),
        ("rank_margin", math.inf), ("rank_margin", math.nan),
        ("lr_drops", ((3, -0.05),)), ("lr_drops", ((3, 0.0),)),
        ("lr_drops", ((3, math.nan),)), ("lr_drops", ((3, math.inf),)),
        ("lr_drops", ((-2, 1e-3),)), ("lr_drops", ((0, 1e-3),)),
        ("lr_drops", ((20, 1e-3), (10, 1e-4))),
        ("lr_drops", ((10, 1e-3), (10, 1e-4))),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError):
            replace(TrainConfig(), **{field: value}).validate()

    def test_reference_spec_loads_the_reference_settings(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "specs" / \
            "reference.spec"
        assert load_spec(path).train == TrainConfig(
            batch_size=512, lr_initial=0.01,
            lr_drops=((10, 1e-3), (20, 1e-4)), lr_aux=0.005, momentum=0.0,
            warmup_epochs=10, hidden_dim=64, feat_dim=32)
