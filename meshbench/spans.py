"""Spans around the calls into meshcontact's layers, recorded from outside.

`Tracer.install` swaps each traced public function for a timing wrapper in
every loaded module that holds it (so ``from .mesh import pose_vertices``
in another module is covered too) and wraps each tape entry's
``backward_fn`` as it is recorded. `Tracer.uninstall` restores them all.

Spans are aggregated as they close: per span name, the summed inclusive
wall time and the call count. A *layer* span opened while no other layer
span is open is top-level; the top-level time is what the op time is
reconciled against. Autodiff primitive spans cut across layers and never
count as layers.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

from meshcontact import autodiff as ad
from meshcontact import backbone, encoder, heads, mesh, multipath, scenes

import wiring

# Public autodiff primitives, by the op kind their tape entries record.
PRIMITIVES = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
    "matmul": "matmul", "transpose": "transpose", "reshape": "reshape",
    "concat": "concat", "narrow": "narrow", "gather_rows": "gather_rows",
    "sum": "sum_", "mean": "mean", "softmax": "softmax", "log_softmax": "log_softmax",
    "layer_norm": "layer_norm", "gelu": "gelu", "sigmoid": "sigmoid", "exp": "exp",
    "log": "log", "clip": "clip", "hard_threshold": "hard_threshold", "conv2d": "conv2d",
}

# (span name, owner, attribute). Several functions may share one span name.
LAYERS = (
    ("backbone.extract_features", backbone, "extract_features"),
    ("backbone.tokenize", backbone, "tokenize"),
    ("encoder.dual_encode", encoder, "dual_encode"),
    ("encoder.encoder_block", encoder, "encoder_block"),
    ("encoder.mhsa", encoder, "mhsa"),
    ("encoder.graph_residual", encoder, "graph_residual"),
    ("multipath.perturb", multipath, "perturb"),
    ("multipath.fuse_paths", multipath, "fuse_paths"),
    ("multipath.weighted_path_sum", multipath, "weighted_path_sum"),
    ("heads.predict", heads, "contact_head"),
    ("heads.predict", heads, "mesh_head"),
    ("heads.predict", heads, "semantic_decoder"),
    ("heads.predict", heads, "bodypart_decoder"),
    ("heads.loss", heads, "loss_mesh"),
    ("heads.loss", heads, "loss_contact"),
    ("heads.loss", heads, "loss_segmentation"),
    ("heads.loss", heads, "aggregate_losses"),
    ("autodiff.backward", ad, "backward"),
    ("bench.optimizer", wiring.Adam, "step"),
    ("scenes.generate_sample", scenes, "generate_sample"),
    ("scenes.render", scenes, "render"),
    ("scenes.downsample_mask", scenes, "downsample_mask"),
    ("scenes.contact_labels", scenes, "contact_labels"),
    ("mesh.pose_vertices", mesh, "pose_vertices"),
    ("tensorio.write", scenes, "write_sample"),
    ("tensorio.read", scenes, "read_sample"),
)


class Tracer:
    """Aggregated spans plus GC pauses, for one traced window."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.top_ns = 0
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._depth = 0
        self._gc_start = 0
        self._undo = []

    def _wrap(self, name, fn, layer):
        ns, calls, clock = self.ns, self.calls, time.perf_counter_ns

        def span(*args, **kwargs):
            if layer:
                depth = self._depth
                self._depth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                ns[name] += dt
                calls[name] += 1
                if layer:
                    self._depth = depth
                    if depth == 0:
                        self.top_ns += dt

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, name, layer):
        orig = getattr(owner, attr)
        wrapped = self._wrap(name, orig, layer)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for name, m in list(sys.modules.items())
                        if (name.startswith("meshcontact") or name == "wiring")
                        and m is not owner and getattr(m, attr, None) is orig]
        for h in holders:
            setattr(h, attr, wrapped)
            self._undo.append((h, attr, orig))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    def install(self):
        for kind, attr in PRIMITIVES.items():
            self._patch(ad, attr, f"autodiff.fwd.{kind}", layer=False)
        for name, owner, attr in LAYERS:
            self._patch(owner, attr, name, layer=True)

        record = ad.Tape.record
        wrap = self._wrap

        def traced_record(tape, op, inputs, out, backward_fn):
            return record(tape, op, inputs, out, wrap(f"autodiff.bwd.{op}", backward_fn, False))

        ad.Tape.record = traced_record
        self._undo.append((ad.Tape, "record", record))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


def layer_metrics(tr: Tracer, n_ops: int, op_ns: int, counters: dict, slowdown: float) -> dict:
    """Per-layer metrics, each per op of the workload: a count, or ms scaled
    by the window's calibration `slowdown` like the end-to-end times."""
    n = max(n_ops, 1)
    per_ms = n * 1e6 * slowdown

    def ms(*names):
        return sum(tr.ns[x] for x in names) / per_ms

    out = {}
    for kind in PRIMITIVES:
        out[f"autodiff.fwd_ms.{kind}"] = ms(f"autodiff.fwd.{kind}")
        out[f"autodiff.calls.{kind}"] = tr.calls[f"autodiff.fwd.{kind}"] / n
        out[f"autodiff.bwd_ms.{kind}"] = ms(f"autodiff.bwd.{kind}")
    out["autodiff.backward_ms"] = ms("autodiff.backward")
    out["autodiff.backward_self_ms"] = (
        ms("autodiff.backward") - ms(*(f"autodiff.bwd.{k}" for k in PRIMITIVES)))
    out["autodiff.tape_entries"] = counters.get("tape_entries", 0) / n
    out["runtime.gc_ms"] = tr.gc_ns / per_ms
    out["runtime.gc_gen2_collections"] = tr.gc_gen2 / n
    out["backbone.extract_features_ms"] = ms("backbone.extract_features")
    out["backbone.tokenize_ms"] = ms("backbone.tokenize")
    out["encoder.dual_encode_ms"] = ms("encoder.dual_encode")
    out["encoder.mhsa_ms"] = ms("encoder.mhsa")
    out["encoder.graph_residual_ms"] = ms("encoder.graph_residual")
    out["encoder.mlp_ms"] = (
        ms("encoder.encoder_block") - ms("encoder.mhsa", "encoder.graph_residual"))
    out["encoder.calls.dual_encode"] = tr.calls["encoder.dual_encode"] / n
    out["multipath.perturb_ms"] = ms("multipath.perturb")
    out["multipath.fuse_paths_ms"] = ms("multipath.fuse_paths")
    out["multipath.weighted_path_sum_ms"] = ms("multipath.weighted_path_sum")
    out["heads.predict_ms"] = ms("heads.predict")
    out["heads.loss_ms"] = ms("heads.loss")
    out["bench.optimizer_ms"] = ms("bench.optimizer")
    out["bench.op_ms"] = op_ns / per_ms
    out["bench.unaccounted_ms"] = (op_ns - tr.top_ns) / per_ms
    out["scenes.generate_sample_ms"] = ms("scenes.generate_sample")
    out["scenes.render_ms"] = ms("scenes.render")
    out["scenes.triangles"] = counters.get("triangles", 0) / n
    out["scenes.downsample_mask_ms"] = ms("scenes.downsample_mask")
    out["scenes.contact_labels_ms"] = ms("scenes.contact_labels")
    out["scenes.generation_failures"] = counters.get("generation_failures", 0) / n
    out["mesh.pose_vertices_ms"] = ms("mesh.pose_vertices")
    out["tensorio.write_ms"] = ms("tensorio.write")
    out["tensorio.read_ms"] = ms("tensorio.read")
    out["tensorio.bytes_per_sample"] = counters.get("bytes", 0) / n
    return out
