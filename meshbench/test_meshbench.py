"""Tests of the benchmark itself: its model wiring, its checks and its output.

Run with: python3 -m pytest meshbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meshcontact import autodiff as ad  # noqa: E402
from meshcontact import backbone, encoder, heads, multipath, scenes  # noqa: E402
from meshcontact.backbone import BackboneConfig, TokenSequence  # noqa: E402
from meshcontact.encoder import EncoderConfig  # noqa: E402
from meshcontact.mesh import MeshConfig  # noqa: E402
from meshcontact.multipath import PathConfig  # noqa: E402

import harness  # noqa: E402
import wiring  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny():
    config = wiring.ModelConfig(
        mesh=MeshConfig(v_full=98, v_coarse=26),
        backbone=BackboneConfig(conv_channels=(4, 8), token_dim=8),
        encoder=EncoderConfig(token_dim=8, heads=2, depth=1, mlp_hidden=8),
    )
    model = wiring.Model(config)
    params = wiring.init_params(model, np.random.default_rng(3))
    sample = scenes.generate_sample(wiring.SCENE, model.template, np.random.default_rng(4))
    return model, params, sample


def test_gradient_check_of_wired_training_loss(tiny):
    model, params, sample = tiny
    # One small tensor from every layer the loss passes through.
    checked = ["backbone.conv0.b", "backbone.global_proj.b", "backbone.vertex_proj.b",
               "enc_a.block0.ln1.gamma", "enc_a.block0.attn.bq", "enc_b.block0.graph.wg",
               "enc_b.block0.mlp.b2", "route.w", "route.phi.b", "heads.contact.b",
               "heads.mesh.b", "heads.sem.b", "heads.bp.b"]
    fixed = wiring.as_tensors({k: v for k, v in params.items() if k not in checked}, False)
    probe = wiring.as_tensors({k: params[k].copy() for k in checked}, True)

    def f(p):
        return wiring.train_loss(model, {**fixed, **p}, sample, np.random.default_rng(5))

    report = ad.gradient_check(f, probe)
    assert report.passed, report


def test_unrouted_one_path_forward_equals_routed_forward(tiny):
    # infer skips the perturbation and the routing, which are the identity
    # at one path: it must match the routed forward bit for bit.
    model, params, sample = tiny
    P = wiring.as_tensors(params, False)
    probs, vertices = wiring.infer(model, P, sample.image)

    cfg = model.config
    grid, global_vec = backbone.extract_features(ad.Tensor(sample.image), P, cfg.backbone)
    seq = backbone.tokenize(grid, global_vec, model.template, P, cfg.backbone)

    def forward(tokens):
        return encoder.dual_encode(TokenSequence(tokens, seq.layout), model.adjacency, P,
                                   cfg.encoder)

    per_path = multipath.make_paths(seq.tokens, PathConfig(n_paths=1),
                                    np.random.default_rng(0), forward)
    fused, _ = multipath.fuse_paths([per_path[0][0]], wiring._routing(P))
    assert np.array_equal(probs, heads.contact_head(fused, model.template, P).probs.data)
    assert np.array_equal(vertices, heads.mesh_head(fused, model.template, P).data)


def test_train_steps_are_reproducible(tiny):
    model, params, sample = tiny
    runs = []
    for _ in range(2):
        p = {k: v.copy() for k, v in params.items()}
        adam = wiring.Adam(p)
        runs.append([wiring.train_step(model, p, adam, sample, np.random.default_rng([1, i]))
                     for i in range(3)])
    assert runs[0] == runs[1]
    losses = [loss for loss, _ in runs[0]]
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_emits_every_metric(name):
    result = harness.run_workload(name, seed=7, seconds=0.0, trace=1, min_ops=3)
    assert result["correct"] and result["failed"] == 0, result["reference_mismatches"]
    assert list(result["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["end_to_end"].values())
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] and np.isfinite(v["value"])
               for k, v in result["metrics"].items())
    pl = result["per_layer"]
    assert pl["bench.unaccounted_ms"] <= result["coverage_share"] * pl["bench.op_ms"]
    expected_encodes = {"train_4path": 4, "infer_1path": 1, "generate_io": 0}[name]
    assert pl["encoder.calls.dual_encode"] == expected_encodes
    if name == "infer_1path":
        assert all(pl[f"multipath.{k}_ms"] == 0 for k in ("perturb", "fuse_paths",
                                                          "weighted_path_sum"))
    if name == "train_4path":
        assert pl["autodiff.tape_entries"] == int(pl["autodiff.tape_entries"]) > 0
    if name == "generate_io":
        assert pl["scenes.render_ms"] > 0 and pl["tensorio.bytes_per_sample"] > 0


class _Counting(workloads.Workload):
    def __init__(self):
        self.seen = []

    def op(self, i):
        self.seen.append(i)

    def check(self, i, out):
        pass


@pytest.mark.parametrize("preemptions_per_call", [0, 10**6])
def test_contended_segments_are_replaced_then_reported(monkeypatch, preemptions_per_call):
    counts = itertools.count(0, preemptions_per_call)
    monkeypatch.setattr(harness, "_preemptions", lambda: next(counts))
    wl = _Counting()
    timed, segments, calm = harness.run_timed(wl, 0.0, 2 * harness.SEGMENTS)
    if preemptions_per_call:
        assert len(segments) == harness.SEGMENTS + harness.EXTRA_SEGMENTS and not calm
        assert timed.attempted == sum(x.attempted for x in segments)
    else:
        assert len(segments) == len(calm) == harness.SEGMENTS
    assert wl.seen == list(range(len(wl.seen)))  # op indices go on across segments


def test_reference_tolerances_are_enforced():
    refs = json.loads(harness.REFERENCES.read_text())
    train, infer = refs["train_4path"], refs["infer_1path"]
    for rtol, key, wl, ref in ((workloads.TRAIN_LOSS_RTOL, "losses", workloads.Train4Path, train),
                               (workloads.CONTACT_PROB_RTOL, "contact_probs",
                                workloads.Infer1Path, infer)):
        values = np.asarray(ref[key])
        assert wl.compare(ref, ref) == []
        assert wl.compare(ref, {key: (values * (1 + rtol / 10)).tolist()}) == []
        assert wl.compare(ref, {key: (values * (1 + rtol * 10)).tolist()}) != []
    gen = refs["generate_io"]
    flipped = ["0" * 64] + gen["sample_sha256"][1:]
    assert workloads.GenerateIO.compare(gen, {"sample_sha256": flipped}) != []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "meshbench", tmp_path / "meshbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "meshbench/run.py", "--workload", "train_4path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
