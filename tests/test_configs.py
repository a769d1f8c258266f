"""Every config is checked when it is constructed, so any instance that exists is valid."""

import numpy as np
import pytest

from meshcontact.autodiff import Tensor
from meshcontact.backbone import BackboneConfig
from meshcontact.encoder import EncoderConfig
from meshcontact.errors import ConfigError
from meshcontact.multipath import PathConfig, RoutingParams


@pytest.mark.parametrize("make", [
    # perturb divided by zero at a dropout rate of 1.0 and scaled every kept
    # token by 2/3 at -0.5.
    lambda: PathConfig(dropout_rate=1.0),
    lambda: PathConfig(dropout_rate=-0.5),
    lambda: PathConfig(mask_ratio=1.0),
    lambda: PathConfig(n_paths=5),
    # run_encoder returned its input unchanged at depth 0, and parameter init
    # divided by zero at a zero width.
    lambda: EncoderConfig(depth=0),
    lambda: EncoderConfig(mlp_hidden=0),
    lambda: EncoderConfig(token_dim=0),
    lambda: BackboneConfig(conv_channels=(0, 32)),
    lambda: BackboneConfig(conv_channels=(16, 0), token_dim=0),
    lambda: BackboneConfig(conv_channels=(16, 32), token_dim=16),
    lambda: RoutingParams(w=Tensor(np.zeros(0)), phi_weight=Tensor(np.eye(2)),
                          phi_bias=Tensor(np.zeros(2))),
], ids=[
    "dropout-1", "dropout-neg", "mask-1", "paths-5",
    "depth-0", "mlp-0", "token-dim-0",
    "channel-0", "last-channel-0", "token-dim-mismatch",
    "routing-empty",
])
def test_invalid_value_rejected_on_construction(make):
    with pytest.raises(ConfigError):
        make()
