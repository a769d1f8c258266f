"""The three workloads: seeded inputs, one op, its output check, its references.

Each workload is driven as a closed loop by one client in one thread: the
next op starts when the previous one has returned. Inputs come only from
the seed; the program sees only the generated inputs.

Output checks come in two kinds:
* every op is checked as it completes (finite loss; probabilities strictly
  inside (0, 1) and finite vertices; an exact write/read round trip);
* after the timed window, a fixed reference seed is rerun and compared with
  `references.json`, recorded with this benchmark. Sample files must be
  byte-identical. Floating-point model outputs may differ from the record by
  the relative tolerances below, which allow a change of summation order
  (for example stacking the paths into one matmul) but not a change of
  arithmetic.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from meshcontact import scenes
from meshcontact.errors import GenerationError
from meshcontact.mesh import MeshConfig, build_template

import calibration
import wiring

TRAIN_LOSS_RTOL = 1e-8
CONTACT_PROB_RTOL = 1e-10
REFERENCE_SEED = 20260317
DATASET_SIZE = 8  # samples the training and inference loops cycle over
FINAL_STEPS = (180, 200)  # train_loss_final: mean loss of these steps (< harness.MIN_OPS)
REFERENCE_TRAIN_STEPS = 4
REFERENCE_IMAGES = 2
REFERENCE_SAMPLES = 4


class CheckFailed(Exception):
    """An op returned output that fails its check."""


def _dataset(model, seed, count):
    """`count` seeded samples; an index whose placement fails is skipped."""
    out, i = [], 0
    while len(out) < count:
        try:
            out.append(scenes.generate_sample(wiring.SCENE, model.template,
                                              np.random.default_rng([seed, 1, i])))
        except GenerationError:
            pass
        i += 1
    return out


class Workload:
    """One op at a time: `op(i)` runs op i, `check(i, out)` raises CheckFailed.

    `reset` restores the state right after set-up; `counters` holds the
    per-window counts the trace reports; `quality` holds figures that are
    not speed, such as the final training loss; `kernel` is the calibration
    kernel closest to what the op does.
    """

    counters: dict = {}
    kernel = calibration.ARRAY

    def reset(self):
        pass

    def quality(self):
        return {}


class Train4Path(Workload):
    """Training steps at the default config: 4 paths x 2 encoders, 122 tokens."""

    name = "train_4path"

    def __init__(self, seed):
        self.seed = seed
        self.model = wiring.Model(wiring.ModelConfig())
        self.init = wiring.init_params(self.model, np.random.default_rng([seed, 0]))
        self.data = _dataset(self.model, seed, DATASET_SIZE)
        self.losses = []
        self.reset()

    def reset(self):
        self.params = copy.deepcopy(self.init)
        self.adam = wiring.Adam(self.params)
        self.losses.clear()
        self.counters = {"tape_entries": 0}

    def op(self, i):
        loss, entries = wiring.train_step(self.model, self.params, self.adam,
                                          self.data[i % len(self.data)],
                                          np.random.default_rng([self.seed, 2, i]))
        self.counters["tape_entries"] += entries
        return loss

    def check(self, i, loss):
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise CheckFailed(f"step {i}: loss {loss}")

    def quality(self):
        lo, hi = FINAL_STEPS
        if len(self.losses) < hi:
            return {}
        return {"train_loss_final": float(np.mean(self.losses[lo:hi]))}

    def reference(self):
        for i in range(REFERENCE_TRAIN_STEPS):
            self.check(i, self.op(i))
        return {"losses": list(self.losses)}

    @staticmethod
    def compare(recorded, fresh):
        return _compare_close("train losses", recorded["losses"], fresh["losses"],
                              TRAIN_LOSS_RTOL)


class Infer1Path(Workload):
    """Single-path, tape-free inference on one image at a time."""

    name = "infer_1path"

    def __init__(self, seed):
        self.model = wiring.Model(wiring.ModelConfig())
        params = wiring.init_params(self.model, np.random.default_rng([seed, 0]))
        self.params = wiring.as_tensors(params, requires_grad=False)
        self.images = [s.image for s in _dataset(self.model, seed, DATASET_SIZE)]

    def op(self, i):
        return wiring.infer(self.model, self.params, self.images[i % len(self.images)])

    def check(self, i, out):
        probs, vertices = out
        if probs.shape != (self.model.template.v_full,) or not (
                (probs > 0.0).all() and (probs < 1.0).all()):
            raise CheckFailed(f"image {i}: contact probabilities outside (0, 1)")
        if vertices.shape != (self.model.template.v_full, 3) or not np.isfinite(vertices).all():
            raise CheckFailed(f"image {i}: non-finite or misshapen vertices")

    def reference(self):
        out = []
        for i in range(REFERENCE_IMAGES):
            probs, vertices = self.op(i)
            self.check(i, (probs, vertices))
            out.append(probs.tolist())
        return {"contact_probs": out}

    @staticmethod
    def compare(recorded, fresh):
        bad = []
        for k, (r, f) in enumerate(zip(recorded["contact_probs"], fresh["contact_probs"])):
            bad += _compare_close(f"image {k} contact probabilities", r, f, CONTACT_PROB_RTOL)
        return bad


class GenerateIO(Workload):
    """generate_sample, write_sample, read_sample for each seeded index."""

    name = "generate_io"
    kernel = calibration.RASTER

    def __init__(self, seed, io_dir: Path):
        self.seed = seed
        self.template = build_template(MeshConfig(), wiring.TEMPLATE_SEED)
        wiring.SCENE.validate(self.template)
        io_dir.mkdir(parents=True, exist_ok=True)
        self.io_dir = io_dir
        self.reset()

    def reset(self):
        self.counters = {"triangles": 0, "bytes": 0, "generation_failures": 0}

    def op(self, i):
        try:
            s = scenes.generate_sample(wiring.SCENE, self.template,
                                       np.random.default_rng([self.seed, i]))
        except GenerationError:
            self.counters["generation_failures"] += 1
            raise
        path = self.io_dir / f"sample_{i % DATASET_SIZE}.bin"
        scenes.write_sample(s, path)
        return s, scenes.read_sample(path), path

    def check(self, i, out):
        s, back, path = out
        self.counters["triangles"] += 2 + 12 * len(s.boxes) + len(self.template.faces)
        self.counters["bytes"] += path.stat().st_size
        for f in dataclasses.fields(s):
            a, b = getattr(s, f.name), getattr(back, f.name)
            if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
                raise CheckFailed(f"sample {i}: {f.name} does not survive write/read")

    def reference(self):
        digests = []
        for i in range(REFERENCE_SAMPLES):
            out = self.op(i)
            self.check(i, out)
            digests.append(hashlib.sha256(out[2].read_bytes()).hexdigest())
        return {"sample_sha256": digests}

    @staticmethod
    def compare(recorded, fresh):
        return [f"sample {k}: sha256 {f} != recorded {r}"
                for k, (r, f) in enumerate(zip(recorded["sample_sha256"], fresh["sample_sha256"]))
                if r != f]


def _compare_close(what, recorded, fresh, rtol):
    r, f = np.asarray(recorded, dtype=np.float64), np.asarray(fresh, dtype=np.float64)
    if r.shape != f.shape:
        return [f"{what}: shape {f.shape} != recorded {r.shape}"]
    err = np.abs(f - r) / np.abs(r)
    if not (err <= rtol).all():
        return [f"{what}: max relative error {err.max():.3e} > {rtol:.0e}"]
    return []


WORKLOADS = {w.name: w for w in (Train4Path, Infer1Path, GenerateIO)}


def make(name, seed, io_dir):
    cls = WORKLOADS[name]
    return cls(seed, io_dir) if cls is GenerateIO else cls(seed)
