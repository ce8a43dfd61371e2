"""``repro.comm`` — the multi-process communicator subsystem.

The paper's data-parallel BCPNN needs exactly one allreduce of sufficient
statistics per batch, so the whole distributed stack is written against a
tiny MPI-shaped :class:`~repro.comm.base.Communicator` interface with four
interchangeable transports:

============  ====================================================================
transport      implementation
============  ====================================================================
``serial``     :class:`SerialComm` — size 1, collectives are copies; the
               reference for rank-invariance tests.
``thread``     :class:`ThreadComm` — in-process ranks on daemon threads with
               real barrier rendezvous (also provides the driver-side list
               combines ``reduce_parts``/``gather_parts``).
``tcp``        :class:`TCPComm` — socket collectives through a driver-side
               rendezvous hub; worker ranks are OS processes spawned on this
               host (``process:N`` is the loopback spelling) or started on
               others.  Multi-host, fault tolerant (crashed workers are
               respawned or re-admitted) and genuinely nonblocking.
``mpi``        :class:`MPIComm` — mpi4py adapter, available when mpi4py is
               importable (``HAVE_MPI``).
============  ====================================================================

Entry points: :func:`parse_transport_spec` parses spec strings ("thread:4",
"process:4", "tcp://host:port?ranks=8", "mpi"); :func:`resolve_comm` /
:func:`get_communicator` turn them into communicators;
:func:`transport_capabilities` reports each transport's ``multihost`` /
``fault_tolerant`` / ``nonblocking`` flags; :meth:`Communicator.run` launches
an SPMD program (rank 0 runs inline in the driver); :mod:`repro.comm.tasks`
holds reusable module-level SPMD programs.
"""

from repro.comm.base import CommRequest, CompletedRequest, Communicator, REDUCE_OPS, split_ranks
from repro.comm.factory import (
    TransportSpec,
    get_communicator,
    list_transports,
    parse_transport_spec,
    resolve_comm,
    transport_capabilities,
)
from repro.comm.mpi import HAVE_MPI, MPIComm
from repro.comm.serial import SerialComm
from repro.comm.tcp import TCPComm
from repro.comm.thread import ThreadComm

__all__ = [
    "Communicator",
    "CommRequest",
    "CompletedRequest",
    "SerialComm",
    "ThreadComm",
    "TCPComm",
    "MPIComm",
    "HAVE_MPI",
    "REDUCE_OPS",
    "split_ranks",
    "TransportSpec",
    "parse_transport_spec",
    "get_communicator",
    "resolve_comm",
    "transport_capabilities",
    "list_transports",
]
