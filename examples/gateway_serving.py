#!/usr/bin/env python3
"""Network serving with backpressure: the gateway tier demo.

A :class:`repro.gateway.Gateway` fronts a :class:`repro.host.Host`
with an asyncio socket server speaking newline-delimited JSON
(``docs/SERVING.md``).  This demo exercises the serving surface
end-to-end over real loopback sockets:

1. three tenants talk concurrently, each keeping Scheme state in its
   own named session across requests (paper-style ``pcall`` trees);
2. a streaming submit delivers the handle's state transitions as
   ``event`` frames alongside the final value;
3. an eval error comes back as a structured ``eval-error`` reply with
   the original exception type — the session survives and answers the
   next request;
4. a tiny admission envelope (``max_inflight=3``) is deliberately
   overrun: the surplus request is *shed* with a ``busy`` reply and a
   ``retry_after_ms`` hint, nothing buffers, and honouring the hint
   gets the retry served;
5. a runaway loop is cancelled mid-flight from the client;
6. the gateway's own counters (admitted/shed/completed) are read back
   through the ``stats`` op.

Run:  python examples/gateway_serving.py

Exits non-zero if any reply is wrong at any stage — CI runs this as
an acceptance check.
"""

import asyncio
import sys

from repro.errors import GatewayBusy, GatewayRequestError
from repro.gateway import Gateway, GatewayClient, GatewayLimits
from repro.host import Host


def check(failures: list, label: str, got, want) -> None:
    ok = got == want
    if not ok:
        failures.append(label)
    print(f"  {label:28s} {got!r:12} (expected {want!r}) [{'ok' if ok else 'WRONG'}]")


async def main_async() -> int:
    failures: list = []
    host = Host(max_pending=16)

    async with Gateway(host, limits=GatewayLimits(max_inflight=3)) as gw:
        print(f"gateway listening on {gw.host}:{gw.port}")

        # -- 1. three tenants, persistent per-session state -------------
        clients = [await GatewayClient.connect(gw.host, gw.port) for _ in range(3)]
        for k, client in enumerate(clients):
            await client.eval(
                f"tenant-{k}",
                "(define (loop n) (if (= n 0) 0 (loop (- n 1))))"
                f"(define me {k})",
                tenant=f"t{k}",
            )
        replies = await asyncio.gather(
            *(
                client.eval(
                    f"tenant-{k}",
                    "(pcall + (loop 40) (* me me) (loop 25))",
                    tenant=f"t{k}",
                )
                for k, client in enumerate(clients)
            )
        )
        for k, value in enumerate(replies):
            check(failures, f"tenant-{k} pcall", value, str(k * k))

        # -- 2. streaming state transitions ------------------------------
        client = clients[0]
        rid = await client.submit(
            "tenant-0", "(loop 2000)", tenant="t0", stream=True
        )
        states = [event["state"] async for event in client.events(rid)]
        print(f"  streamed transitions        {states}")
        if not states or states[-1] != "done":
            failures.append("stream terminal state")
        check(failures, "streamed result", await client.result(rid), "0")

        # -- 3. structured eval errors, session survives -----------------
        try:
            await client.eval("tenant-0", "(+ 1 no-such-variable)", tenant="t0")
            failures.append("eval error not raised")
        except GatewayRequestError as exc:
            check(failures, "eval error code", exc.code, "eval-error")
        check(failures, "session survives", await client.eval("tenant-0", "me"), "0")

        # -- 4. overload is shed, honouring retry_after gets served ------
        spin = "(let spin ((i 0)) (if (= i 200000) i (spin (+ i 1))))"
        blockers = [
            await client.submit("tenant-1", spin, tenant="t1"),
            await client.submit("tenant-2", spin, tenant="t2"),
            await client.submit("tenant-0", spin, tenant="t0"),
        ]
        try:
            await client.submit("tenant-0", "(+ 1 1)", tenant="t0")
            failures.append("overload not shed")
        except GatewayBusy as exc:
            print(f"  shed with retry_after_ms    {exc.retry_after_ms}")
            if exc.retry_after_ms <= 0:
                failures.append("retry_after_ms hint")
        for rid in blockers:
            await client.result(rid)
        check(
            failures, "retry served", await client.eval("tenant-0", "(+ 1 1)"), "2"
        )

        # -- 5. cancelling a runaway request -----------------------------
        rid = await client.submit(
            "tenant-0", "(let go ((i 0)) (go (+ i 1)))", tenant="t0"
        )
        check(failures, "cancel accepted", await client.cancel(rid), True)
        try:
            await client.result(rid)
            failures.append("cancelled result not raised")
        except GatewayRequestError as exc:
            check(failures, "cancelled code", exc.code, "cancelled")

        # -- 6. the gateway's own counters -------------------------------
        stats = await client.stats()
        print("\ngateway counters:")
        for key in sorted(k for k in stats if k.startswith("gateway.")):
            print(f"  {key:28s} {stats[key]}")
        if stats.get("gateway.shed", 0) < 1:
            failures.append("shed counter")
        if stats.get("gateway.completed", 0) < 8:
            failures.append("completed counter")

        for client in clients:
            await client.close()

    if failures:
        print(f"\n{len(failures)} FAILURES: {failures}")
        return 1
    print(
        "\nall replies correct through concurrent tenants, streaming, "
        "eval errors, shedding, and cancellation"
    )
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main_async()))
