"""Streaming batched execution engine.

The engine is the single dispatch path between the layer/network layer and
the compute backends: an :class:`ExecutionPlan` sizes a
:class:`LayerWorkspace` once per ``(layer, batch_size)``, and a
:class:`LayerEngine` streams every training/inference batch through the
backend's fused, workspace-aware primitives (``forward_into``,
``update_traces``, ``fused_update``).  This realises the paper's framing of
BCPNN training as a pipeline of GEMM-shaped kernels that an HPC framework
feeds through pluggable backends — here with per-batch allocations removed
from the steady-state loop.

Pipelined training (:mod:`repro.engine.pipeline`) layers an overlap
scheduler on top: double-buffered workspace rings (``n_buffers=2``) keep
batch ``k``'s activations valid while batch ``k+1`` computes, a
:class:`PipelineWorker` thread reduces monitoring statistics off the
critical path, and the engine's stale-weights caching
(``weight_refresh_tol``) skips the per-batch ``traces_to_weights`` refresh
while the accumulated ``taupdt``-scaled trace drift stays under tolerance.

Layering: ``repro.engine`` depends only on ``repro.backend`` (and the
neutral ``repro.kernels``); ``repro.core`` depends on the engine.  Backends
never import the engine — workspaces are duck-typed.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "pipeline": [
            "PipelineTask",
            "PipelineWorker",
            "mean_activation_entropy",
            "train_layer_pipelined",
        ],
        "plan": ["ExecutionPlan", "LayerEngine"],
        "workspace": ["LayerWorkspace"],
    },
)
