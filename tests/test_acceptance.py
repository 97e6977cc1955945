"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The experiment criteria read the grid runner's tables,
which share their training runs through its cell memo; the full module
stays inside the stated runtime budgets.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab import data
from aurelab.aux_branch import (AuxiliaryBranch, au_detection_loss,
                                build_au_graph)
from aurelab.cli import main as cli_main
from aurelab.experiments import (EXPERIMENT_TRAIN_DEFAULTS, DatasetSpec,
                                 ExperimentSpec, clear_cell_memo, run_grid)
from aurelab.relabel import decide_relabel, semantic_distances
from aurelab.relabel import SemanticTemplates
from aurelab.target_branch import (TargetBranch, class_weights,
                                   confidence_split, rank_regularization,
                                   weighted_cross_entropy)
from aurelab.trainer import (TrainConfig, load_checkpoint, ramp_weights,
                             save_checkpoint, total_loss, train)
import tape_kit as tk
from oracles import (cooccurrence_by_double_loop, scalar_class_weights,
                     scalar_cosine_distance, scalar_ramp_weights,
                     scalar_relabel)

SEEDS = (0, 1, 2, 3, 4)


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


class _Probe:
    """One smooth random probe point for the loss gradient checks."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.target = TargetBranch(8, 8, 6, 3, rng=rng)
        self.aux = AuxiliaryBranch(6, 5, node_dim=4, channels=8, rng=rng)
        ds = data.generate(3, 5, 8, 6, 4.0, 1.0, seed=seed)
        ds = data.corrupt_labels(ds, 0.2, seed=seed + 1)
        self.x = ad.constant(ds.features)
        self.labels = ds.observed_labels
        self.au_bits = ds.au_labels
        self.graph = build_au_graph(ds.au_labels)
        self.gamma = class_weights(self.labels, 3)
        self.margin = 0.4

    def _forward(self):
        feats = self.target.features(self.x)
        conf = self.target.confidence(feats)
        return feats, conf

    def _hinge(self, conf):
        high, low = confidence_split(conf, np.arange(conf.rows), 0.8)
        return rank_regularization(conf, high, low, self.margin)

    def is_smooth(self):
        feats, conf = self._forward()
        h_pre = (self.x.data @ self.target.layer1_w.data
                 + self.target.layer1_b.data)
        if np.min(np.abs(h_pre)) < 1e-3:
            return False
        alphas = np.sort(conf.data[:, 0])
        if np.min(np.diff(alphas)) < 1e-3:
            return False
        # the hinge must be active and off its kink: its value is the gap
        if not self._hinge(conf).item() > 1e-3:
            return False
        probs, _ = self.aux.semantic_logits(feats, self.graph.normalized)
        return bool(np.all((probs.data > 1e-6) & (probs.data < 1 - 1e-6)))

    def params(self):
        return (list(self.target.parameters().values())
                + list(self.aux.parameters().values()))

    def frozen_confidence(self):
        _, conf = self._forward()
        return conf.data[:, 0].copy()

    def loss_wce(self):
        feats, conf = self._forward()
        return weighted_cross_entropy(feats, self.target.classifier_w, conf,
                                      self.gamma, self.labels)

    def loss_rank(self):
        _, conf = self._forward()
        return self._hinge(conf)

    def loss_au(self, frozen_alpha):
        feats, _ = self._forward()
        probs, _ = self.aux.semantic_logits(feats, self.graph.normalized)
        return au_detection_loss(probs, self.au_bits, frozen_alpha)

    def loss_total(self, frozen_alpha):
        lam_t, lam_a = ramp_weights(7, 10)
        return total_loss(self.loss_wce(), self.loss_rank(),
                          self.loss_au(frozen_alpha), lam_t, lam_a)


def smooth_probes(count=20):
    probes, seed = [], 0
    while len(probes) < count:
        probe = _Probe(seed)
        if probe.is_smooth():
            probes.append(probe)
        seed += 1
    return probes


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    for probe in smooth_probes(20):
        frozen = probe.frozen_confidence()
        for loss_fn in (probe.loss_wce, probe.loss_rank,
                        lambda: probe.loss_au(frozen),
                        lambda: probe.loss_total(frozen)):
            rep = tk.check_gradients(loss_fn, probe.params(), eps=1e-5)
            worst = max(worst, rep.max_rel_error)
    elapsed = time.monotonic() - started
    report(1, worst < 1e-4 and elapsed < 60,
           f"max rel error {worst:.2e} (tol 1e-4) over 20 probes x 4 losses "
           f"in {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence


def test_criterion_2_oracle_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 101))
        m = int(rng.integers(4, 13))
        bits = (rng.random((n, m)) < rng.uniform(0.1, 0.6)).astype(int)
        got = build_au_graph(bits).conditional
        assert np.array_equal(got, cooccurrence_by_double_loop(bits)), \
            f"co-occurrence mismatch at seed {seed}"

    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        c = int(rng.integers(2, 9))
        labels = rng.integers(0, c, int(rng.integers(1, 40)))
        np.testing.assert_allclose(class_weights(labels, c),
                                   scalar_class_weights(labels.tolist(), c),
                                   atol=1e-15)

        epoch = int(rng.integers(1, 100))
        pivot = int(rng.integers(1, 40))
        assert ramp_weights(epoch, pivot) == scalar_ramp_weights(epoch, pivot)

        templates = SemanticTemplates.empty(c, 6)
        templates.vectors[...] = rng.standard_normal((c, 6))
        templates.valid[...] = rng.random(c) < 0.8
        s = rng.standard_normal(6)
        dists = semantic_distances(s, templates)
        for j in range(c):
            if templates.valid[j]:
                assert dists[j] == pytest.approx(
                    scalar_cosine_distance(templates.vectors[j], s), abs=1e-12)
            else:
                assert math.isnan(dists[j])
        org = int(rng.integers(0, c))
        assert decide_relabel(dists, org) == scalar_relabel(dists.tolist(), org)

    report(2, True, "build_graph exact on 50 datasets; class_weights, "
                    "ramp_weights, semantic_distance, relabel match scalar "
                    "reimplementations on 100 cases each")


# ---------------------------------------------------------------------------
# criterion 3: equation-level unit values


def test_criterion_3_unit_values():
    checks = []

    sig = ad.sigmoid(ad.constant([[math.log(3.0)]])).item()
    checks.append(("sigmoid(ln 3) = 0.75", abs(sig - 0.75) < 1e-12))

    gamma = class_weights(np.array([0, 0, 0, 0, 1, 1, 2, 2]), 3)
    checks.append(("class weights [4,2,2]/8 = [.5,.75,.75]",
                   np.max(np.abs(gamma - [0.5, 0.75, 0.75])) < 1e-12))

    conf = ad.constant(np.array([0.6, 0.6, 0.6, 0.6, 0.55]).reshape(5, 1))
    high, low = confidence_split(conf, np.arange(5), 0.8)
    hinge = rank_regularization(conf, high, low, 0.15)
    checks.append(("hinge(0.6, 0.55, margin .15) = 0.10",
                   abs(hinge.item() - 0.10) < 1e-12))

    lam_t, lam_a = ramp_weights(10, 10)
    checks.append(("ramp weights both 1 at the pivot",
                   lam_t == 1.0 and lam_a == 1.0))

    bits = np.array([[1, 0], [1, 1], [0, 1], [0, 1]])
    graph = build_au_graph(bits).conditional
    checks.append(("P(u1|u2)=1/3 and P(u2|u1)=1/2 on the 4-sample example",
                   abs(graph[0, 1] - 1 / 3) < 1e-12
                   and abs(graph[1, 0] - 0.5) < 1e-12))

    failed = [name for name, ok in checks if not ok]
    report(3, not failed, f"5 closed-form values exact to 1e-12"
           + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# criteria 4-7: synthetic experiments (shared runs)


@pytest.fixture(scope="module")
def protocol():
    return ExperimentSpec(dataset=DatasetSpec(),
                          train=replace(EXPERIMENT_TRAIN_DEFAULTS, epochs=40),
                          seeds=SEEDS, rates=(0.1, 0.2, 0.3), rate=0.2)


@pytest.fixture(scope="module")
def sweep_cells(protocol):
    """The sweep's rows by (method, rate), and the time it took.  It runs
    first and from an empty memo, so its time counts every cell it needs."""
    clear_cell_memo()
    started = time.monotonic()
    rows = run_grid(replace(protocol, name="noise_sweep"))
    elapsed = time.monotonic() - started
    return ({(r.label["method"], r.label["corruption_rate"]): r
             for r in rows}, elapsed)


def test_criterion_4_noise_robustness_trend(sweep_cells):
    table, elapsed = sweep_cells
    gaps = {}
    ok_every_rate = True
    details = []
    for rate in (0.1, 0.2, 0.3):
        base = median([c.accuracy for c in table["baseline", rate].cells])
        full = median([c.accuracy for c in table["full", rate].cells])
        gaps[rate] = full - base
        ok_every_rate &= full >= base
        details.append(f"{rate:.0%}: full {full:.4f} vs base {base:.4f}")
    trend_ok = gaps[0.3] >= gaps[0.1] - 0.02
    report(4, ok_every_rate and trend_ok and elapsed < 1800,
           "; ".join(details) + f"; gap30 {gaps[0.3]:+.4f} >= gap10 - 2pts "
           f"{gaps[0.1] - 0.02:+.4f}; sweep took {elapsed / 60:.1f} min "
           f"(budget 30)")


@pytest.fixture(scope="module")
def ablation_cells(protocol, sweep_cells):
    """Median accuracy per branch setting at 20%; "neither" and "full" are
    the sweep's cells, read from the memo."""
    names = {(0, 0): "neither", (1, 0): "target", (0, 1): "aux",
             (1, 1): "full"}
    return {names[r.label["target_branch"], r.label["aux_branch"]]:
            median([c.accuracy for c in r.cells])
            for r in run_grid(replace(protocol, name="ablation"))}


def test_criterion_5_ablation_ordering(ablation_cells):
    med = ablation_cells
    ordered = med["full"] >= med["aux"] >= med["target"] >= med["neither"]
    margin = med["full"] - med["neither"]
    report(5, ordered and margin >= 0.02,
           f"medians full {med['full']:.4f} >= aux {med['aux']:.4f} >= "
           f"target {med['target']:.4f} >= neither {med['neither']:.4f}; "
           f"full - neither = {margin:+.4f} (needs >= +0.02)")


def test_criterion_6_edge_ablation(protocol, sweep_cells):
    med = {r.label["edges"]: median([c.accuracy for c in r.cells])
           for r in run_grid(replace(protocol, name="edges"))}
    report(6, med["data_driven"] >= med["random"],
           f"data-driven edges {med['data_driven']:.4f} >= random edges "
           f"{med['random']:.4f}")


def test_criterion_7_label_correction_efficacy(sweep_cells):
    # np.median of the per-seed figures: a seed that moved no label has NaN
    # precision and fails the criterion instead of being skipped
    cells = sweep_cells[0]["full", 0.2].cells
    noise = median([c.final_noise_rate for c in cells])
    precision = median([c.relabel_precision for c in cells])
    report(7, noise < 0.2 and precision > 0.5,
           f"median stored-label noise after training {noise:.4f} (< 0.2); "
           f"median correction precision {precision:.4f} (> 0.5)")


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_determinism_and_persistence(tmp_path):
    gen_args = ["gen", "--classes", "3", "--aus", "6", "--dim", "8",
                "--size", "200", "--corruption", "0.2", "--seed", "11",
                "--test-fraction", "0.25"]
    train_args = ["--epochs", "5", "--batch-size", "32", "--warmup-epochs",
                  "2", "--ramp-pivot", "2", "--lr", "0.05"]

    ds_path = tmp_path / "ds.txt"
    assert cli_main(gen_args + ["--out", str(ds_path)]) == 0

    # dataset save/load round-trip, bit-exact
    ds = data.load(ds_path)
    copy_path = tmp_path / "copy.txt"
    data.save(ds, copy_path)
    round_trip = _sha(ds_path) == _sha(copy_path)

    # rerun with the same spec and seed: checksum-identical artifacts
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["train", "--data", str(ds_path), "--test-data",
            str(ds_path) + ".test"] + train_args
    assert cli_main(base + ["--out", str(out_a)]) == 0
    assert cli_main(base + ["--out", str(out_b)]) == 0
    rerun_same = all(_sha(out_a / f) == _sha(out_b / f)
                     for f in ("metrics.csv", "checkpoint.json",
                               "relabel_audit.csv"))

    # checkpoint resume continues the identical trajectory
    half_out = tmp_path / "half"
    resumed_out = tmp_path / "resumed"
    assert cli_main(base + ["--epochs", "2", "--out", str(half_out)]) == 0
    assert cli_main(base + ["--epochs", "5", "--out", str(resumed_out),
                            "--resume",
                            str(half_out / "checkpoint.json")]) == 0
    resume_exact = _sha(resumed_out / "checkpoint.json") == \
        _sha(out_a / "checkpoint.json")

    report(8, round_trip and rerun_same and resume_exact,
           f"dataset round-trip bit-exact: {round_trip}; rerun checksums "
           f"identical: {rerun_same}; resume matches uninterrupted run: "
           f"{resume_exact}")
