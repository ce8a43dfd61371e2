"""Compute backends.

StreamBrain ships hand-tuned OpenMP/SIMD, MPI, CUDA and FPGA backends behind
one kernel interface.  None of those targets exist in this environment, so
this package provides:

* :class:`~repro.backend.numpy_backend.NumpyBackend` — the reference
  BLAS-backed implementation (what StreamBrain calls the "numpy" backend).
* :class:`~repro.backend.lowprec.LowPrecisionBackend` — float32 / float16 /
  posit-style quantisation wrapper, standing in for the FPGA
  reduced-precision backend.
* :mod:`~repro.backend.distributed` — the SPMD
  :class:`~repro.backend.distributed.DistributedTrainer`, which runs real
  thread/tcp/MPI ranks over :mod:`repro.comm`.  Multi-core and multi-host
  parallelism comes from those ranks, not from a backend.

Backends are obtained by name through :func:`get_backend`.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ["Backend", "KernelStatistics"],
        "numpy_backend": ["NumpyBackend"],
        "lowprec": ["LowPrecisionBackend", "posit_round"],
        "registry": ["get_backend", "list_backends"],
        "distributed": ["DistributedTrainer", "split_ranks"],
    },
)
