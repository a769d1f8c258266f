"""The op kinds one training step of `meshcontact.model` records, pinned, the bytes
its tape keeps, bounded, and every parameter live.

A change to what the model records shows up here as a count or a size, not only
as a slower benchmark.  A change that moves these counts on
purpose updates the pin and names the change in CHANGES.md; ROADMAP item 26,
which fuses the contact loss on logits, expects 385 entries.
"""

import collections
import contextlib

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import model as mc
from meshcontact import scenes
from meshcontact.mesh import MeshConfig
from test_autodiff import kept_bytes

TRAIN_STEP_OPS = {
    "linear": 92, "add": 70, "matmul": 57, "gelu": 38, "layer_norm": 32, "mul": 26,
    "narrow": 28, "attention": 16, "mean": 6, "reshape": 5, "concat": 4, "clip": 2, "neg": 4,
    "conv2d": 2, "sigmoid": 2, "log": 2, "log_softmax": 2, "gather_rows": 2,
    "transpose": 1, "softmax": 1, "sub": 1,
}


MESH_CONFIGS = [MeshConfig(), MeshConfig(v_full=98, v_coarse=26)]
MESH_IDS = ["386-98", "98-26"]


def _setup(mesh_config):
    """The model, its parameters from seed 3, and sample `default_rng([9, 0])`."""
    model = mc.Model(mc.ModelConfig(mesh=mesh_config))
    params = mc.init_params(model, np.random.default_rng(3))
    sample = scenes.generate_sample(model.scene, model.template, np.random.default_rng([9, 0]))
    return model, params, sample


def _step(model, params, adam, sample):
    """One default training step with perturbations from `default_rng([1, 0])`."""
    return mc.train_step(model, params, adam, sample, np.random.default_rng([1, 0]))


def test_train_step_op_kinds_pinned(monkeypatch):
    tapes = []
    open_tape = ad.tape_scope

    @contextlib.contextmanager
    def recording_scope():
        with open_tape() as tape:
            tapes.append(tape)
            yield tape

    monkeypatch.setattr(ad, "tape_scope", recording_scope)
    model, params, sample = _setup(MeshConfig())
    _, entries = _step(model, params, mc.Adam(params), sample)
    (tape,) = tapes
    assert entries == len(tape.entries) == sum(TRAIN_STEP_OPS.values()) == 393
    assert collections.Counter(e.op for e in tape.entries) == TRAIN_STEP_OPS


# The unique bytes a default step's closures hold at the end of its forward, parameters
# included: 10,412,668 here. Just above that, so that a change that keeps an O(T^2) buffer,
# such as the (heads x Tq x Tk) attention exps, on the tape fails this bound.
STEP_KEPT_BYTES = 10_450_000


def test_train_step_tape_within_its_memory_bound(monkeypatch):
    held = []
    replay = ad.backward

    def measuring_backward(loss, params):
        held.append(kept_bytes(ad.active_tape()))
        return replay(loss, params)

    monkeypatch.setattr(ad, "backward", measuring_backward)
    model, params, sample = _setup(MeshConfig())
    _step(model, params, mc.Adam(params), sample)
    (kept,) = held
    assert kept <= STEP_KEPT_BYTES


# After one step every parameter's largest |gradient| is at least 2.9e-3 here. A parameter
# no output depends on, such as a key bias, gets only rounding noise: at most 3.2e-16.
LIVE_GRADIENT = 1e-10


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_every_parameter_has_a_live_gradient(mesh_config):
    class RecordingAdam(mc.Adam):
        def step(self, params, grads):
            self.grads = {k: np.abs(g.data).max() for k, g in grads.items()}
            super().step(params, grads)

    model, params, sample = _setup(mesh_config)
    adam = RecordingAdam(params)
    _step(model, params, adam, sample)
    assert adam.grads.keys() == params.keys()
    assert {k for k, g in adam.grads.items() if not g > LIVE_GRADIENT} == set()
