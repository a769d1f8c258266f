"""Every config is checked when it is constructed, so any instance that exists is valid."""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import numpy as np
import pytest

import meshcontact
from meshcontact.autodiff import Tensor
from meshcontact.backbone import BackboneConfig
from meshcontact.encoder import EncoderConfig
from meshcontact.errors import ConfigError
from meshcontact.heads import LossWeights
from meshcontact.model import ModelConfig
from meshcontact.multipath import PathConfig, RoutingParams


@pytest.mark.parametrize("make", [
    lambda: PathConfig(n_paths=5),
    # The encoders returned their input unchanged at depth 0, and parameter init
    # divided by zero at a zero width.
    lambda: EncoderConfig(depth=0),
    lambda: EncoderConfig(mlp_hidden=0),
    lambda: EncoderConfig(token_dim=0),
    lambda: BackboneConfig(conv_channels=(0, 32)),
    lambda: BackboneConfig(conv_channels=(16, 0), token_dim=0),
    lambda: BackboneConfig(conv_channels=(16, 32), token_dim=16),
    # A model whose encoders are narrower than its tokens built, then failed its first
    # step: layer_norm needs gamma and beta of shape (32,), got (16,), (16,).
    lambda: ModelConfig(encoder=EncoderConfig(token_dim=16)),
    lambda: RoutingParams(w=Tensor(np.zeros(0)), phi_weight=Tensor(np.eye(2)),
                          phi_bias=Tensor(np.zeros(2))),
    # aggregate_losses returned NaN with no error for a NaN weight.
    lambda: LossWeights(mesh=float("nan")),
    lambda: LossWeights(mesh=-3.0),
    lambda: LossWeights(cls_b=float("inf")),
    lambda: LossWeights(bp=-float("inf")),
    # A weight that is not a real number raised a bare TypeError from the range check.
    lambda: LossWeights(mesh=None),
    lambda: LossWeights(mesh="1"),
    lambda: LossWeights(mesh=1j),
    # True constructed as a weight of 1, though every integer config field rejects a bool.
    lambda: LossWeights(mesh=True),
], ids=[
    "paths-5",
    "depth-0", "mlp-0", "token-dim-0",
    "channel-0", "last-channel-0", "token-dim-mismatch", "model-token-dim-mismatch",
    "routing-empty",
    "loss-weight-nan", "loss-weight-negative", "loss-weight-inf", "loss-weight-minus-inf",
    "loss-weight-none", "loss-weight-str", "loss-weight-complex", "loss-weight-bool",
])
def test_invalid_value_rejected_on_construction(make):
    with pytest.raises(ConfigError):
        make()


def integer_fields():
    """(config class, field name, default) of every int or tuple[int, ...] field of every
    `*Config` dataclass in the package."""
    for info in pkgutil.iter_modules(meshcontact.__path__):
        module = importlib.import_module(f"meshcontact.{info.name}")
        for name, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if cls.__module__ != module.__name__ or not name.endswith("Config"):
                continue
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if hints[f.name] in (int, tuple[int, ...]):
                    yield cls, f.name, f.default


INTEGER_FIELDS = list(integer_fields())
INTEGER_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in INTEGER_FIELDS]


def test_integer_fields_are_found():
    assert {"MeshConfig.v_full", "BackboneConfig.conv_channels", "EncoderConfig.depth",
            "PathConfig.n_paths"} <= set(INTEGER_IDS)


def _like(default, convert):
    """The default with its integer (or a tuple default's first integer) passed through convert."""
    if isinstance(default, tuple):
        return (convert(default[0]), *default[1:])
    return convert(default)


@pytest.mark.parametrize("cls, name, default", INTEGER_FIELDS, ids=INTEGER_IDS)
@pytest.mark.parametrize("convert", [float, lambda v: True], ids=["float", "bool"])
def test_non_integer_value_rejected(cls, name, default, convert):
    # PathConfig(n_paths=2.5), EncoderConfig(depth=1.5) and MeshConfig(v_full=386.0)
    # constructed and failed later with a bare TypeError; True counted as 1.
    with pytest.raises(ConfigError, match=f"{cls.__name__}.{name} must be"):
        cls(**{name: _like(default, convert)})


@pytest.mark.parametrize("cls, name, default", INTEGER_FIELDS, ids=INTEGER_IDS)
def test_numpy_integer_accepted(cls, name, default):
    config = cls(**{name: _like(default, np.int64)})
    assert getattr(config, name) == default
