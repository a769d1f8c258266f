"""Print a digest of the wired model's training and inference, to compare two trees bit for bit.

Run from the repository root, in each tree, and diff the outputs:

    python3 tests/wired_digest.py

For `MeshConfig()` and `MeshConfig(98, 26)` it runs 6 `train_step`s of the model that
meshbench/wiring.py wires (parameters from seed 3, sample i from `default_rng([9, i])`,
step i's perturbations from `default_rng([1, i])`), then `infer` on sample 0's image. It
prints each step's loss as `float.hex` with its tape-entry count, one SHA-256 over the
trained parameter arrays (name, dtype, shape and bytes) and one over `infer`'s outputs.
It writes no file.  Pytest does not collect it: its name does not start with `test_`.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "meshbench")]

import wiring  # noqa: E402
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
    model = wiring.Model(wiring.ModelConfig(mesh=mesh_config))
    params = wiring.init_params(model, np.random.default_rng(3))
    adam = wiring.Adam(params)
    samples = [scenes.generate_sample(wiring.SCENE, model.template, np.random.default_rng([9, i]))
               for i in range(STEPS)]
    lines = [str(mesh_config)]
    for i, sample in enumerate(samples):
        loss, entries = wiring.train_step(model, params, adam, sample,
                                          np.random.default_rng([1, i]))
        lines.append(f"  step {i}: loss {loss.hex()}, {entries} tape entries")
    lines.append(f"  params {_sha256(sorted(params.items()))}")
    P = wiring.as_tensors(params, requires_grad=False)
    outputs = wiring.infer(model, P, samples[0].image)
    lines.append(f"  infer  {_sha256(zip(('contact', 'vertices'), outputs))}")
    return lines


if __name__ == "__main__":
    for config in (MeshConfig(), MeshConfig(v_full=98, v_coarse=26)):
        print("\n".join(digest(config)))
