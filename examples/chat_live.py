#!/usr/bin/env python3
"""Live multi-user chat over real TCP sockets on loopback (wall-clock time).

The other single-process examples run on the deterministic discrete-event
simulator; this one drives the same DECAF stack over three
:class:`TcpTransport` instances — one per user, as if each ran in its own
process — exchanging codec frames through loopback sockets.  Three users
exchange messages; optimistic views render transcripts immediately, and
replicas converge.

Run:  python examples/chat_live.py
"""

import asyncio
import socket
import time

from repro import Session
from repro.apps import ChatRoom
from repro.transport import TcpTransport

USERS = ("alice", "bob", "carol")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def settle(transports, settle_ms: float = 50.0) -> None:
    """Wait until no transport has frames queued, in flight, or undelivered."""
    while True:
        for transport in transports:
            await transport.aquiesce(settle_ms=settle_ms)
        if all(transport.pending() == 0 for transport in transports):
            return


async def main():
    print("== DECAF live chat (TCP transport, loopback sockets) ==\n")
    addrs = {site: ("127.0.0.1", free_port()) for site in range(len(USERS))}
    transports = [TcpTransport(addrs, local_sites={site}) for site in addrs]
    alice, bob, carol = (
        Session(transport=transport, roster=set(addrs)).add_site(f"user{site}", site_id=site)
        for site, transport in enumerate(transports)
    )
    for transport in transports:
        await transport.start()

    # Establish the shared log with the real join protocol.
    log_a = alice.create_list("chatlog")
    assoc = alice.create_association("chat.assoc")
    alice.transact(lambda: assoc.create_relationship("chat.rel"))
    await settle(transports)
    alice.join(assoc, "chat.rel", log_a)
    await settle(transports)
    invitation = assoc.make_invitation(note="team chat")
    rooms = [ChatRoom(alice, log_a, author=USERS[0])]
    for site, author in ((bob, USERS[1]), (carol, USERS[2])):
        local_assoc = site.import_invitation(invitation, "chat.assoc")
        await settle(transports)
        local_log = site.create_list("chatlog")
        site.join(local_assoc, "chat.rel", local_log)
        await settle(transports)
        rooms.append(ChatRoom(site, local_log, author=author))

    script = [
        (0, "hello everyone!"),
        (1, "hi alice"),
        (2, "working on the DECAF reproduction"),
        (0, "optimistic views feel instant"),
        (1, "and the transcripts converge"),
    ]
    t0 = time.monotonic()
    for sender, text in script:
        rooms[sender].send(text)
        await asyncio.sleep(0.02)  # users type fast, sometimes overlapping
    await settle(transports, settle_ms=200)
    elapsed = (time.monotonic() - t0) * 1000

    print(f"-- transcripts after {elapsed:.0f} ms of real time --")
    for room in rooms:
        print(f"   {room.author}'s view ({room.view.notifications} notifications):")
        for line in room.transcript():
            print(f"      {line}")
    assert rooms[0].transcript() == rooms[1].transcript() == rooms[2].transcript()
    assert len(rooms[0].transcript()) == len(script)
    for transport in transports:
        await transport.stop()
    print("\nOK: identical transcripts on every site over live TCP sockets.")


if __name__ == "__main__":
    asyncio.run(main())
