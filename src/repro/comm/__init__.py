"""``repro.comm`` — the multi-process communicator subsystem.

The paper's data-parallel BCPNN needs exactly one allreduce of sufficient
statistics per batch, so the whole distributed stack is written against a
tiny MPI-shaped :class:`~repro.comm.base.Communicator` interface with three
interchangeable transports:

============  ====================================================================
transport      implementation
============  ====================================================================
``serial``     :class:`SerialComm` — size 1, collectives are copies; the
               reference for rank-invariance tests.
``thread``     :class:`ThreadComm` — in-process ranks on daemon threads with
               real barrier rendezvous.
``tcp``        :class:`TCPComm` — socket collectives through a driver-side
               rendezvous hub; worker ranks are OS processes spawned on this
               host (``process:N`` is the loopback spelling) or started on
               others.  Multi-host and fault tolerant (crashed workers are
               respawned or re-admitted).
============  ====================================================================

Entry points: :func:`parse_transport_spec` parses spec strings ("thread:4",
"process:4", "tcp://host:port?ranks=8"); :func:`resolve_comm` /
:func:`get_communicator` turn them into communicators;
:func:`transport_capabilities` reports each transport's ``multihost`` /
``fault_tolerant`` flags; :meth:`Communicator.run` launches
an SPMD program (rank 0 runs inline in the driver).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ["Communicator", "REDUCE_OPS", "split_ranks"],
        "factory": [
            "TransportSpec",
            "get_communicator",
            "list_transports",
            "parse_transport_spec",
            "resolve_comm",
            "transport_capabilities",
        ],
        "serial": ["SerialComm"],
        "tcp": ["TCPComm"],
        "thread": ["ThreadComm"],
    },
)
