"""The package's model: tied bit for bit to the benchmark's copy, and one source for its extents.

`meshbench/wiring.py` keeps a second copy of the model, which the benchmark
drives, until the benchmark imports `meshcontact.model` (ROADMAP item 7).
Until then the tie tests here hold the two copies to the same parameters,
losses, gradients, trained parameters and inference outputs, at two mesh
sizes.  This is the only file under tests/ that imports `wiring`; it goes
with wiring's copy.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import model as mc
from meshcontact import scenes
from meshcontact.backbone import BackboneConfig
from test_wired_tape import MESH_CONFIGS, MESH_IDS, TRAIN_STEP_OPS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "meshbench"))

import wiring  # noqa: E402

STEPS = 4


def _pair(mesh_config):
    """(wiring's model, its parameter arrays, the package's model, its parameters), both
    from seed 3."""
    w_model = wiring.Model(wiring.ModelConfig(mesh=mesh_config))
    model = mc.Model(mc.ModelConfig(mesh=mesh_config))
    return (w_model, wiring.init_params(w_model, np.random.default_rng(3)),
            model, mc.init_params(model, np.random.default_rng(3)))


def _sample(model, i):
    return scenes.generate_sample(model.scene, model.template, np.random.default_rng([9, i]))


def _bytes(arrays):
    """(name, dtype, shape, bytes) of each named array, in order."""
    return [(k, a.dtype, a.shape, a.tobytes()) for k, a in arrays]


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_initial_parameters_match_wiring(mesh_config):
    _, w_params, _, P = _pair(mesh_config)
    assert _bytes((k, p.data) for k, p in P.items()) == _bytes(w_params.items())
    assert all(p.requires_grad and p.name == k for k, p in P.items())


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_first_loss_and_gradients_match_wiring(mesh_config):
    w_model, w_params, model, P = _pair(mesh_config)
    sample = _sample(model, 0)
    with ad.tape_scope():
        w_P = wiring.as_tensors(w_params, requires_grad=True)
        w_loss = wiring.train_loss(w_model, w_P, sample, np.random.default_rng([1, 0]))
        w_grads = ad.backward(w_loss, w_P)
    with ad.tape_scope():
        loss = mc.train_loss(model, P, sample, np.random.default_rng([1, 0]))
        grads = ad.backward(loss, P)
    assert loss.item().hex() == w_loss.item().hex()
    assert (_bytes((k, g.data) for k, g in grads.items())
            == _bytes((k, g.data) for k, g in w_grads.items()))


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_trained_parameters_and_losses_match_wiring(mesh_config):
    w_model, w_params, model, P = _pair(mesh_config)
    w_adam, adam = wiring.Adam(w_params), mc.Adam(P)
    w_losses, losses = [], []
    for i in range(STEPS):
        sample = _sample(model, i)
        w_loss, _ = wiring.train_step(w_model, w_params, w_adam, sample,
                                      np.random.default_rng([1, i]))
        loss, _ = mc.train_step(model, P, adam, sample, np.random.default_rng([1, i]))
        w_losses.append(w_loss.hex())
        losses.append(loss.hex())
    assert losses == w_losses
    assert _bytes((k, p.data) for k, p in P.items()) == _bytes(w_params.items())


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_inferred_outputs_match_wiring(mesh_config):
    w_model, w_params, model, P = _pair(mesh_config)
    image = _sample(model, 0).image
    w_outputs = wiring.infer(w_model, wiring.as_tensors(w_params, requires_grad=False), image)
    outputs = mc.infer(model, P, image)
    assert _bytes(zip("cv", outputs)) == _bytes(zip("cv", w_outputs))


def test_one_image_extent_trains_at_128_px():
    # wiring's module-level scene keeps its own 64 px backbone, so there a 128 px backbone
    # failed its first step: image extents (3, 64, 64) do not match configured (3, 128, 128).
    model = mc.Model(mc.ModelConfig(backbone=BackboneConfig(image_size=128)))
    P = mc.init_params(model, np.random.default_rng(3))
    sample = _sample(model, 0)
    assert sample.image.shape == (3, 128, 128)
    loss, entries = mc.train_step(model, P, mc.Adam(P), sample, np.random.default_rng([1, 0]))
    assert np.isfinite(loss) and entries == sum(TRAIN_STEP_OPS.values())
