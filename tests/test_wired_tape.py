"""The op kinds one wired training step records, pinned.

A change to what the model records shows up here as a count, not only as a
slower benchmark.  The wiring is imported from meshbench/ as
meshbench/test_meshbench.py imports it.  A change that moves these counts on
purpose updates the pin and names the change in CHANGES.md; ROADMAP item 26,
which fuses the contact loss on logits, expects 385 entries.
"""

import collections
import contextlib
import sys
from pathlib import Path

import numpy as np

from meshcontact import autodiff as ad
from meshcontact import scenes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "meshbench"))

import wiring  # noqa: E402

TRAIN_STEP_OPS = {
    "linear": 108, "add": 70, "matmul": 41, "gelu": 38, "layer_norm": 32, "mul": 26,
    "narrow": 28, "attention": 16, "mean": 6, "reshape": 5, "concat": 4, "clip": 2, "neg": 4,
    "conv2d": 2, "sigmoid": 2, "log": 2, "log_softmax": 2, "gather_rows": 2,
    "transpose": 1, "softmax": 1, "sub": 1,
}


def test_train_step_op_kinds_pinned(monkeypatch):
    tapes = []
    open_tape = ad.tape_scope

    @contextlib.contextmanager
    def recording_scope():
        with open_tape() as tape:
            tapes.append(tape)
            yield tape

    monkeypatch.setattr(ad, "tape_scope", recording_scope)
    model = wiring.Model(wiring.ModelConfig())
    params = wiring.init_params(model, np.random.default_rng(3))
    sample = scenes.generate_sample(wiring.SCENE, model.template, np.random.default_rng([9, 0]))
    _, entries = wiring.train_step(model, params, wiring.Adam(params), sample,
                                   np.random.default_rng([1, 0]))
    (tape,) = tapes
    assert entries == len(tape.entries) == sum(TRAIN_STEP_OPS.values()) == 393
    assert collections.Counter(e.op for e in tape.entries) == TRAIN_STEP_OPS
