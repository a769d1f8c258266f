"""Print a digest of the model's training and inference, to compare two trees bit for bit.

Run from the repository root, in each tree, and diff the outputs:

    python3 tests/wired_digest.py

For `MeshConfig()` and `MeshConfig(98, 26)` it runs 6 `train_step`s of `meshcontact.model`
(at its `PATHS`; parameters from seed 3, sample i from `default_rng([9, i])`,
step i's perturbations from `default_rng([1, i])`), then `infer` on sample 0's image. It
prints each step's loss as `float.hex` with its tape-entry count, one SHA-256 over the
trained parameter arrays (name, dtype, shape and bytes) and one over `infer`'s outputs.
It writes no file.  Pytest does not collect it: its name does not start with `test_`.
`meshbench/wiring.py`'s copy of the model computes the same bits (`tests/test_model.py`).
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from meshcontact import model as mc  # noqa: E402
from meshcontact import scenes  # noqa: E402
from meshcontact.mesh import MeshConfig  # noqa: E402

STEPS = 6


def _sha256(arrays):
    digest = hashlib.sha256()
    for name, a in arrays:
        digest.update(f"{name} {a.dtype} {a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def digest(mesh_config):
    """The lines this script prints for one mesh config."""
    model = mc.Model(mc.ModelConfig(mesh=mesh_config))
    params = mc.init_params(model, np.random.default_rng(3))
    adam = mc.Adam(params)
    samples = [scenes.generate_sample(model.scene, model.template, np.random.default_rng([9, i]))
               for i in range(STEPS)]
    lines = [str(mesh_config)]
    for i, sample in enumerate(samples):
        loss, entries = mc.train_step(model, params, adam, sample, np.random.default_rng([1, i]))
        lines.append(f"  step {i}: loss {loss.hex()}, {entries} tape entries")
    lines.append(f"  params {_sha256(sorted((k, p.data) for k, p in params.items()))}")
    outputs = mc.infer(model, params, samples[0].image)
    lines.append(f"  infer  {_sha256(zip(('contact', 'vertices'), outputs))}")
    return lines


if __name__ == "__main__":
    for config in (MeshConfig(), MeshConfig(v_full=98, v_coarse=26)):
        print("\n".join(digest(config)))
