"""Transport selection: parse ``--comm``-style transport specs to communicators.

One grammar, one resolver, used everywhere a communicator can be configured
(``Network.fit``, ``StreamingPredictor``, the ``repro`` CLI, ``training.comm``
in config files), so the paths cannot drift:

==============================  ==============================================
spec                            meaning
==============================  ==============================================
``serial``                      rank-0 no-op communicator
``thread:4``                    4 in-process ranks on daemon threads
``tcp://host:port?ranks=8``     8 ranks over sockets (multi-host capable)
``process:4``                   ``tcp://127.0.0.1:0?ranks=4``: 4 local ranks
==============================  ==============================================

``process:N`` is only a spelling: it parses to the loopback tcp spec, so
``TransportSpec.name`` is ``"tcp"`` and the communicator is a
:class:`~repro.comm.tcp.TCPComm` whose workers are spawned on this host.

A bare name (``thread``, ``process``, ``tcp``) is a size-1 communicator unless
an explicit ``ranks`` argument accompanies it — the legacy ``comm``/``ranks``
flag pair, kept working through a deprecation shim in :func:`resolve_comm`.
The tcp spec accepts query options: ``ranks``, ``timeout`` (seconds),
``chunk_bytes``, and ``spawn`` (``0`` to wait for externally started workers
instead of spawning local ones).

:func:`transport_capabilities` reports each constructible transport's
capability flags (``multihost``, ``fault_tolerant``) so
callers — the CLI's ``--comm help`` table, the config validator, serving —
can reason about what a spec supports without constructing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type, Union
from urllib.parse import urlsplit, parse_qsl

from repro.comm.base import Communicator
from repro.comm.serial import SerialComm
from repro.comm.tcp import TCPComm
from repro.comm.thread import ThreadComm
from repro.exceptions import BackendError

__all__ = [
    "TransportSpec",
    "parse_transport_spec",
    "get_communicator",
    "resolve_comm",
    "list_transports",
    "transport_capabilities",
]

CommSpec = Union[str, Communicator, None]

#: Transport registry: name -> communicator class.  ``serial`` ignores a
#: rank count (it is always size 1).
_TRANSPORT_CLASSES: Dict[str, Type[Communicator]] = {
    "serial": SerialComm,
    "thread": ThreadComm,
    "tcp": TCPComm,
}
_TCP_QUERY_KEYS = ("ranks", "timeout", "chunk_bytes", "spawn")


@dataclass(frozen=True)
class TransportSpec:
    """A parsed transport spec: name, optional embedded rank count, options."""

    name: str
    ranks: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise BackendError(f"{what} must be an integer, got {text!r}") from None
    if value <= 0:
        raise BackendError(f"{what} must be positive, got {value}")
    return value


def _parse_tcp(spec: str) -> TransportSpec:
    # Accept "tcp", "tcp?opts" and "tcp://host:port?opts"; urlsplit needs
    # the "//" authority marker to put host:port in netloc.
    normalized = spec if "://" in spec else "tcp://" + spec[3:].lstrip("/")
    parts = urlsplit(normalized)
    options: Dict[str, Any] = {}
    if parts.hostname:
        options["host"] = parts.hostname
    try:
        port = parts.port
    except ValueError:
        raise BackendError(f"invalid port in tcp spec {spec!r}") from None
    if port is not None:
        options["port"] = int(port)
    ranks: Optional[int] = None
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        if key not in _TCP_QUERY_KEYS:
            raise BackendError(
                f"unknown tcp spec option {key!r} in {spec!r}; "
                f"supported: {list(_TCP_QUERY_KEYS)}"
            )
        if key == "ranks":
            ranks = _positive_int(value, "tcp ranks")
        elif key == "timeout":
            try:
                options["timeout"] = float(value)
            except ValueError:
                raise BackendError(f"tcp timeout must be a number, got {value!r}") from None
        elif key == "chunk_bytes":
            options["chunk_bytes"] = _positive_int(value, "tcp chunk_bytes")
        elif key == "spawn":
            if value not in ("0", "1"):
                raise BackendError(f"tcp spawn must be 0 or 1, got {value!r}")
            options["spawn_workers"] = value == "1"
    return TransportSpec("tcp", ranks, options)


def parse_transport_spec(spec: str) -> TransportSpec:
    """Parse one transport spec string (see the module docstring grammar)."""
    if not isinstance(spec, str) or not spec.strip():
        raise BackendError(f"transport spec must be a non-empty string, got {spec!r}")
    text = spec.strip()
    lowered = text.lower()
    if lowered == "tcp" or lowered.startswith("tcp://") or lowered.startswith("tcp?"):
        return _parse_tcp(text)
    if lowered.startswith("tcp:"):
        raise BackendError(
            f"malformed tcp spec {spec!r}; use URL syntax: 'tcp://host:port?ranks=N'"
        )
    name, sep, count = lowered.partition(":")
    if name == "process":  # loopback tcp: ranks spawned on this host
        ranks = _positive_int(count, "process rank count") if sep else None
        return TransportSpec("tcp", ranks, {"host": "127.0.0.1", "port": 0})
    if name not in _TRANSPORT_CLASSES:
        raise BackendError(
            f"unknown comm transport '{spec}'; available: {list_transports()}"
        )
    if not sep:
        return TransportSpec(name)
    if name == "serial":
        raise BackendError("the serial transport is single-rank; drop the ':N' suffix")
    return TransportSpec(name, _positive_int(count, f"{name} rank count"))


def resolve_comm(transport: CommSpec, ranks=None, **kwargs):
    """Resolve optional ``--comm``/``training.comm`` settings to a communicator.

    The one shared interpretation, used by ``Network.fit``, the serving
    predictor, the ``repro`` CLI and the config runner so the paths cannot
    drift:

    * both unset -> ``None`` (plain single-process training, no comm layer);
    * ranks > 1 with no transport named -> the thread transport;
    * otherwise -> :func:`get_communicator` on the spec.

    The preferred way to size a communicator is inside the spec itself
    (``thread:4``, ``tcp://host:port?ranks=8``); pairing a bare name with a
    separate ``ranks`` value still works but raises a
    :class:`DeprecationWarning`.
    """
    if transport is None and ranks is None:
        return None
    if transport is None and int(ranks) > 1:
        return get_communicator(f"thread:{int(ranks)}", **kwargs)
    if (
        isinstance(transport, str)
        and ranks is not None
        and int(ranks) > 1
        and parse_transport_spec(transport).ranks is None
    ):
        import warnings

        warnings.warn(
            "the comm/ranks flag pair is deprecated; encode the rank count in "
            "the transport spec instead (e.g. 'thread:4', 'process:4', "
            "'tcp://host:port?ranks=4')",
            DeprecationWarning,
            stacklevel=2,
        )
    return get_communicator(transport, ranks=1 if ranks is None else int(ranks), **kwargs)


def get_communicator(spec: CommSpec = None, ranks: int = 1, **kwargs) -> Communicator:
    """Resolve a transport spec (or pass through an instance) to a communicator.

    Parameters
    ----------
    spec:
        ``None``/"serial" (rank-0 no-op), a spec string from the grammar in
        the module docstring ("thread:4", "process:4",
        "tcp://host:port?ranks=8"), or an existing
        :class:`Communicator` instance (returned unchanged; ``ranks`` must
        then agree or be 1).
    ranks:
        Legacy rank count for bare transport names.  When the spec embeds
        its own count the two must agree (or ``ranks`` be 1).
    kwargs:
        Forwarded to the transport constructor (e.g. ``timeout=``,
        ``host=``/``port=``/``start_method=`` for tcp).  Explicit kwargs
        win over spec-embedded options.
    """
    if isinstance(spec, Communicator):
        if ranks not in (1, spec.size):
            raise BackendError(
                f"ranks={ranks} disagrees with the supplied communicator size {spec.size}"
            )
        return spec
    if spec is None:
        parsed = TransportSpec("serial")
    elif isinstance(spec, str):
        parsed = parse_transport_spec(spec)
    else:
        raise BackendError(
            f"comm must be a transport spec, a Communicator or None, got {type(spec).__name__}"
        )
    ranks = int(ranks)
    if parsed.ranks is not None:
        if ranks not in (1, parsed.ranks):
            raise BackendError(
                f"ranks={ranks} disagrees with the rank count {parsed.ranks} "
                f"embedded in the transport spec '{spec}'"
            )
        size = parsed.ranks
    else:
        size = ranks
    if parsed.name == "serial":
        if size > 1:
            raise BackendError(
                "the serial transport is single-rank; use 'thread:N', 'process:N' "
                "or 'tcp://host:port?ranks=N'"
            )
        return SerialComm()
    options = {**parsed.options, **kwargs}
    return _TRANSPORT_CLASSES[parsed.name](size, **options)


def list_transports() -> List[str]:
    """Names of the constructible transports in this environment."""
    return list(_TRANSPORT_CLASSES)


def transport_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability flags per constructible transport, for tables and validators.

    Returns a mapping ``name -> {multihost, fault_tolerant, spec}`` where ``spec`` is an example spec string sized at 4 ranks.
    """
    examples = {
        "serial": "serial",
        "thread": "thread:4",
        "tcp": "tcp://127.0.0.1:0?ranks=4",
    }
    table: Dict[str, Dict[str, object]] = {}
    for name in list_transports():
        cls = _TRANSPORT_CLASSES[name]
        table[name] = {
            "multihost": bool(cls.multihost),
            "fault_tolerant": bool(cls.fault_tolerant),
            "spec": examples[name],
        }
    return table
