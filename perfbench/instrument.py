"""Span wrappers around the public entry points of each ``repro`` layer.

The traced run installs these wrappers from the benchmark's own files;
nothing under ``src/`` knows about them.  Each wrapper records one span
named after the layer (``nn.gelu``, ``kernels.gelu``, ``cluster.kmeans``
...) around the original callable and makes it the current span, so
calls made inside it nest under it.  :meth:`Instrumentation.uninstall`
puts every original back, so traced and untraced operations can
alternate inside one run.

Module functions are patched on the module that callers look them up on
at call time: ``repro.kernels.functional`` (callers hold the module, not
the function) and ``repro.attention.group`` (which imported
``batched_kmeans`` by name).
"""

from __future__ import annotations

import functools
import importlib

#: ``(module path, class name or None, attribute, span name)``.
_TARGETS = [
    # data, task and model
    ("repro.tasks.classification", "ClassificationTask", "loss", "task.loss"),
    ("repro.model.rita", "RitaModel", "classify", "model.classify"),
    ("repro.model.rita", "RitaModel", "reconstruct", "model.reconstruct"),
    ("repro.model.rita", "TimeAwareConvolution", "forward", "model.frontend"),
    ("repro.nn.embedding", "LearnedPositionalEmbedding", "forward", "model.positions"),
    ("repro.model.encoder", "RitaEncoderLayer", "forward", "model.encoder_layer"),
    ("repro.nn.conv", "ConvTranspose1d", "forward", "model.decoder"),
    # attention and grouping
    ("repro.attention.multihead", "MultiHeadSelfAttention", "forward", "attention.multihead"),
    ("repro.attention.group", "GroupAttention", "forward", "attention.group"),
    ("repro.attention.group", None, "batched_kmeans", "cluster.kmeans"),
    # nn modules
    ("repro.nn.activations", "GELU", "forward", "nn.gelu"),
    ("repro.nn.linear", "Linear", "forward", "nn.linear"),
    ("repro.nn.norm", "LayerNorm", "forward", "nn.layernorm"),
    ("repro.nn.dropout", "Dropout", "forward", "nn.dropout"),
    ("repro.nn.loss", "CrossEntropyLoss", "forward", "nn.cross_entropy"),
    # training machinery
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.optim.optimizer", "Optimizer", "zero_grad", "optim.zero_grad"),
    ("repro.optim.adam", "Adam", "step", "optim.step"),
    ("repro.scheduler.adaptive", "AdaptiveScheduler", "step", "scheduler.step"),
    # serving
    ("repro.serve.engine", "InferenceEngine", "classify", "serve.engine"),
    ("repro.serve.engine", "InferenceEngine", "reconstruct", "serve.engine"),
    ("repro.serve.router", "Router", "submit", "serve.router.submit"),
    ("repro.serve.router", "Router", "on_result", "serve.router.on_result"),
    ("repro.serve.router", "Router", "tick", "serve.router.tick"),
]

#: The kernel API: every autograd-aware primitive in ``repro.kernels.functional``.
_KERNELS = (
    "cross_entropy", "fused_group_softmax", "gelu", "l1", "layer_norm", "linear",
    "log_softmax", "masked_l1", "masked_mse", "masked_softmax", "mse",
    "performer_phi", "relu", "segment_gather", "segment_sum", "softmax",
)


def _targets():
    for module_path, class_name, attribute, span_name in _TARGETS:
        module = importlib.import_module(module_path)
        owner = module if class_name is None else getattr(module, class_name)
        yield owner, attribute, span_name
    functional = importlib.import_module("repro.kernels.functional")
    for name in _KERNELS:
        yield functional, name, f"kernels.{name}"


def _wrap(original, span_name: str, recorder):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = recorder.start(span_name)
        token = recorder.activate(span)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.deactivate(token)
            recorder.finish(span)

    return traced


class Instrumentation:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self._originals: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self._originals:
            return
        for owner, attribute, span_name in _targets():
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, span_name, self.recorder))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
