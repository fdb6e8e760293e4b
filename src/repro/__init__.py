"""repro — a reproduction of the DECAF collaborative replicated-object framework.

Implements the algorithms of Strom, Banavar, Miller, Prakash, and Ward,
"Concurrency Control and View Notification Algorithms for Collaborative
Replicated Objects" (ICDCS 1997 / IEEE Transactions on Computers 47(4),
1998): optimistic multi-object transactions over replicated model objects
with primary-copy guess validation and fast commit, plus optimistic and
pessimistic view notification via consistent snapshots.

Quickstart::

    from repro import DInt, Session

    session = Session.simulated(latency_ms=50)
    alice, bob = session.add_sites(2)
    a, b = session.replicate(DInt, "balance", [alice, bob], initial=100)

    alice.transact(lambda: a.set(a.get() - 30))
    session.settle()
    assert b.get() == 70
"""

from repro.core import (
    Association,
    AuthorizationMonitor,
    DFloat,
    DInt,
    DList,
    DMap,
    DString,
    Invitation,
    OptimisticView,
    PessimisticView,
    Session,
    SiteRuntime,
    Snapshot,
    Transaction,
    TransactionOutcome,
    View,
)
from repro.errors import (
    ConcurrencyConflict,
    NotAuthorized,
    ObjectNotFound,
    ReproError,
    RetryLimitExceeded,
    TransactionAborted,
)
from repro.host import SessionHost
from repro.transport.tcp import Placement
from repro.vtime import LamportClock, VirtualTime

__version__ = "1.0.0"

__all__ = [
    "Session",
    "SessionHost",
    "Placement",
    "SiteRuntime",
    "DInt",
    "DFloat",
    "DString",
    "DList",
    "DMap",
    "Association",
    "Invitation",
    "Transaction",
    "TransactionOutcome",
    "View",
    "OptimisticView",
    "PessimisticView",
    "Snapshot",
    "AuthorizationMonitor",
    "VirtualTime",
    "LamportClock",
    "ReproError",
    "TransactionAborted",
    "ConcurrencyConflict",
    "ObjectNotFound",
    "NotAuthorized",
    "RetryLimitExceeded",
    "__version__",
]
