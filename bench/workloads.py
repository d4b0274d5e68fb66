"""The four workloads: frozen parameters, seeded request streams, the
machine-suite programs, and the answer checker.

Everything that sets the offered load — rates, session and tenant
counts, list sizes, phase split — is a constant here, so a parent
commit and a change get identical load from identical benchmark code.
The seed only picks *which* session, tenant and request kind each
request gets; the program never sees the seed.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Iterator

#: Closed and open segments alternate this many times in a run.
CYCLES = 8
#: Share of a serving run's length spent in open segments, at the
#: workload's frozen rate.  Closed segments send a fixed count of
#: requests each, however long that takes.
OPEN_SHARE = 0.6
#: A closed segment stops sending after this many seconds even if its
#: count is not reached (about four times its length on the slowest
#: machine state seen), so no machine or change can stretch a run past
#: its time limit.
CLOSED_CAP_S = 4.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Connections the load generator opens per phase.  Fixed, never
#: derived from the host, so every machine offers the same load shape.
CONNECTIONS = 2

#: Shard worker processes of the cluster workloads' ``Cluster``.
SHARDS = 2
#: A SIGKILL lands once this share of its closed segment's requests has
#: been sent, with the rest still to come.
KILL_AT = 0.25

#: Seconds of the traced run's closed loop on one long-lived
#: connection, and the equal stretches its throughput is read in.
AGED_S = 4.0
AGED_PARTS = 4

#: How long a client waits for one request's terminal answer before
#: counting it failed.
RESULT_TIMEOUT_S = 20.0

INCREMENT = "(begin (set! c (+ c 1)) c)"
READ = "c"
BATCH = "(fib 15)"
BATCH_ANSWER = "610"  # fib(15), by hand

FIB_DEF = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
#: A session carrying this list has a snapshot ~2x the size of one
#: that does not, so snapshot encode cost varies across sessions.
BIG_LIST_DEF = (
    "(define big (let loop ((i 0) (acc '()))"
    " (if (= i 2000) acc (loop (+ i 1) (cons i acc)))))"
)


@dataclass(frozen=True)
class Serving:
    """A traffic mix offered over the gateway's wire protocol."""

    name: str
    backend: str  # "host" | "cluster"
    sessions: int
    tenants: int
    closed_outstanding: int
    #: Requests per closed segment: about a second's worth at the seed
    #: on the slowest machine state seen.  A fixed count, not a fixed
    #: time, because the gateway keeps every answered request's record
    #: until its connection closes: a fixed count makes the memory that
    #: costs (and so ``peak_rss_mb``) the same however fast the machine
    #: runs.
    closed_requests: int
    #: Requests per second.  At most a third of the closed-loop capacity
    #: on the slowest machine state seen, so the open loop measures
    #: service, not a queue that grows with the machine's speed.
    open_rate: float
    batch_share: float  # share of requests that are (fib 15)
    big_sessions: int  # sessions 0..big_sessions-1 carry BIG_LIST_DEF
    #: Whether open-loop latency is given at reference speed (see
    #: measure.py).  True where a request's time is mostly CPU work (a
    #: cluster request's snapshot encode), so it scales with the
    #: machine's speed; False where it is mostly hand-off waits that do
    #: not, which dividing by the slowdown would distort.
    cpu_bound_latency: bool
    kills: int = 0  # shard SIGKILLs per run, one per closed segment

    def session_names(self) -> list[str]:
        return [f"s{i:02d}" for i in range(self.sessions)]

    def tenant_of(self, index: int) -> str:
        return f"t{index % self.tenants:02d}"

    def warmup_source(self, index: int) -> str:
        """The request that creates session ``index`` during set-up."""
        parts = ["(define c 0)"]
        if self.batch_share:
            parts.append(FIB_DEF)
        if index < self.big_sessions:
            parts.append(BIG_LIST_DEF)
        return " ".join(parts)


@dataclass(frozen=True)
class Request:
    rid: int  # client-side request id, carried as a "; r<id>" comment
    session: str
    tenant: str
    kind: str  # "inc" | "read" | "batch"

    @property
    def source(self) -> str:
        body = {"inc": INCREMENT, "read": READ, "batch": BATCH}[self.kind]
        return f"{body} ; r{self.rid}"


GATEWAY_SHORT = Serving(
    name="gateway-short",
    backend="host",
    sessions=64,
    tenants=16,
    closed_outstanding=64,
    closed_requests=1000,
    open_rate=300.0,
    batch_share=0.0,
    big_sessions=0,
    cpu_bound_latency=False,
)
CLUSTER_MIXED = Serving(
    name="cluster-mixed",
    backend="cluster",
    sessions=32,
    tenants=8,
    closed_outstanding=16,
    closed_requests=80,
    open_rate=20.0,
    batch_share=0.10,
    big_sessions=3,
    cpu_bound_latency=True,
)
CLUSTER_FAILOVER = replace(CLUSTER_MIXED, name="cluster-failover", kills=6)

SERVING = {w.name: w for w in (GATEWAY_SHORT, CLUSTER_MIXED, CLUSTER_FAILOVER)}
MACHINE_SUITE = "machine-suite"
WORKLOADS = [*SERVING, MACHINE_SUITE]


#: Requests per session in one block of a request stream.
BLOCK_PER_SESSION = 10


def request_stream(workload: Serving, seed: int, phase: str, first_rid: int) -> Iterator[Request]:
    """An endless, seed-determined request stream for one phase.

    The stream is made of blocks in which every session appears exactly
    :data:`BLOCK_PER_SESSION` times, the batch share is exact, and
    increments and reads split the rest evenly; the seed shuffles each
    block.  Exact counts keep the work per request the same from seed
    to seed, so seeds change the order of the work but not its amount.
    """
    rng = random.Random(f"{workload.name}/{seed}/{phase}")
    names = workload.session_names()
    size = workload.sessions * BLOCK_PER_SESSION
    batch = round(size * workload.batch_share)
    increments = (size - batch) // 2
    kinds = ["batch"] * batch + ["inc"] * increments + ["read"] * (size - batch - increments)
    slots = [i % workload.sessions for i in range(size)]
    rid = first_rid
    while True:
        rng.shuffle(slots)
        rng.shuffle(kinds)
        for index, kind in zip(slots, kinds):
            yield Request(rid, names[index], workload.tenant_of(index), kind)
            rid += 1


class Ledger:
    """Checks every answer, and every session's counter across the run.

    The values a session's increments return must be exactly 1..k,
    where k is the number of acknowledged increments, and a final read
    must return k: a lost write shows as a repeated value or a short
    final count, a doubled one as a gap.  Reads must lie in 0..k.
    Sessions with a failed increment cannot be checked exactly (the
    write may or may not have happened); that failure is already
    counted.
    """

    def __init__(self) -> None:
        self.increments: dict[str, list[int]] = defaultdict(list)
        self.reads: dict[str, list[int]] = defaultdict(list)
        self.unsure: set[str] = set()
        self.wrong = 0

    def answer(self, request: Request, value: str | None) -> bool:
        """Record one acknowledged answer; False if it is wrong on its own."""
        if request.kind == "batch":
            ok = value == BATCH_ANSWER
        else:
            try:
                number = int(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                ok = False
            else:
                target = self.increments if request.kind == "inc" else self.reads
                target[request.session].append(number)
                ok = number >= (1 if request.kind == "inc" else 0)
        if not ok:
            self.wrong += 1
        return ok

    def lost(self, request: Request) -> None:
        """A request failed: its session's count is no longer exact."""
        if request.kind == "inc":
            self.unsure.add(request.session)

    def verify(self, finals: dict[str, int]) -> list[str]:
        """Problems found given each session's final counter value."""
        problems = []
        for session, final in sorted(finals.items()):
            if session in self.unsure:
                continue
            values = sorted(self.increments.get(session, []))
            k = len(values)
            if values != list(range(1, k + 1)):
                problems.append(f"{session}: increments returned {_gaps(values)}")
            if final != k:
                problems.append(f"{session}: final count {final}, acknowledged {k}")
            reads = self.reads.get(session, [])
            if reads and max(reads) > k:
                problems.append(f"{session}: read {max(reads)} > {k} writes")
        return problems


def _gaps(values: list[int]) -> str:
    dups = sorted(v for v, n in Counter(values).items() if n > 1)
    missing = sorted(set(range(1, len(values) + 1)) - set(values))
    return f"duplicates {dups[:5]} missing {missing[:5]}"


# -- machine-suite ---------------------------------------------------------

#: Definitions loaded into each machine-suite session (on top of the
#: prelude and the paper's product-callcc and search-all examples).
MACHINE_DEFS = r"""
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (tak x y z)
  (if (< y x) (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y)) z))
(define (deep n thunk) (if (= n 0) (thunk) (+ 1 (deep (- n 1) thunk))))
(define (spin c m acc)
  (if (= m 0) acc (spin c (- m 1) (+ acc (c (lambda (k) (k 1)))))))
(define (deep-capture depth m)
  (spawn (lambda (c) (deep depth (lambda () (spin c m 0))))))
(define (pfib n) (if (< n 2) n (pcall + (pfib (- n 1)) (pfib (- n 2)))))
(define (multi-shot n)
  (spawn (lambda (c)
    (+ 1 (c (lambda (k)
      (let loop ([i 0] [acc 0])
        (if (= i n) acc (loop (+ i 1) (k acc))))))))))
(define (balanced lo hi)
  (if (> lo hi) '()
      (let ([mid (quotient (+ lo hi) 2)])
        (cons mid (append (balanced lo (- mid 1)) (balanced (+ mid 1) hi))))))
(define (twos n zero-at)
  (if (= n 0) '() (cons (if (= n zero-at) 0 2) (twos (- n 1) zero-at))))
(define e1-zero-mid (twos 400 200))
(define e1-no-zero (twos 400 -1))
(define search-tree (list->tree (balanced 1 127)))
"""

#: Paper examples each machine-suite session loads.
MACHINE_EXAMPLES = ("product-callcc", "search-all")

#: E9 captures per run: (deep-capture D m) builds a D-deep continuation
#: once, then captures and reinstates it m times.
E9_CAPTURES = 1000

#: (name, source, expected printed value).  Expected values are written
#: out by hand (2**400 is Python's arithmetic), never taken from
#: another engine.
MACHINE_PROGRAMS = [
    ("fib-18", "(fib 18)", "2584"),
    ("tak-12-8-4", "(tak 12 8 4)", "5"),
    ("e1-product-zero", "(product e1-zero-mid)", "0"),
    ("e1-product-full", "(product e1-no-zero)", str(2**400)),
    ("e9-capture-200", f"(deep-capture 200 {E9_CAPTURES})", str(200 + E9_CAPTURES)),
    ("e9-capture-2000", f"(deep-capture 2000 {E9_CAPTURES})", str(2000 + E9_CAPTURES)),
    ("e9-build-200", "(deep-capture 200 0)", "200"),
    ("e9-build-2000", "(deep-capture 2000 0)", "2000"),
    ("pcall-tree", "(pfib 14)", "377"),
    ("parallel-search", "(length (search-all search-tree even?))", "63"),
    ("spawn-multi-shot", "(multi-shot 300)", "300"),
]

MACHINE_ENGINES = ("compiled", "codegen")
