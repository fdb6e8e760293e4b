"""Transport abstraction binding DECAF sites to a message fabric.

Every site is addressed by a ``(tenant, site)`` pair
(:mod:`repro.transport.base`).  Three interchangeable implementations:

* :class:`~repro.transport.memory.MemoryTransport` — synchronous in-process
  queue with zero latency; used by unit tests that exercise protocol logic
  without timing.
* :class:`~repro.transport.simnet.SimTransport` — adapter over the
  discrete-event :class:`~repro.sim.network.Network`; used by integration
  tests and every simulated benchmark.
* :class:`~repro.transport.tcp.TcpTransport` — length-prefixed wire-codec
  frames over real asyncio TCP streams, with reconnect/backoff and
  fail-stop detection; lets sites in separate OS processes collaborate,
  and runs the live examples on loopback.
"""

from repro.transport.base import Transport
from repro.transport.memory import MemoryTransport
from repro.transport.simnet import SimTransport
from repro.transport.tcp import TcpTransport

__all__ = [
    "Transport",
    "MemoryTransport",
    "SimTransport",
    "TcpTransport",
]
