"""Network hop hot-path guards (slotted hops and express segments).

The interconnect schedules every switch-to-switch hop of every coherence
message, so its dispatch cost multiplies across the whole simulator the
same way the kernel queue does.  Hop scheduling is *slotted*: leave +
arrive + depart happen in one kernel dispatch per hop (same-cycle
completions are deliberately NOT batched into shared heap entries — that
reordered hop processing against interleaved non-hop events; see the
Network docstring).  The guards:

* **throughput** — a steady hop stream costs exactly one ``net.hop``
  dispatch per hop plus the end-of-cycle delivery flushes, nothing else
  (structural, noise-free); the hop rate is printed;
* **equivalence** — full default-4x4 machine runs replay the committed
  golden runs, captured while the legacy two-events-per-hop scheme still
  reproduced them bit for bit.

*Express hops* layer on top of slotted scheduling: when a flight's
remaining segment is idle, one ``net.express`` dispatch covers the whole
segment.  ``Network(express=False)`` is the hop-by-hop reference:

* **reduction** — on an idle 8x8 stream the per-hop dispatch count
  (``net.hop`` + ``net.express``) must drop >= 1.5x vs hop-by-hop, with
  an identical delivery sequence;
* **equivalence** — the golden default-4x4 machine runs replay exactly
  with express segments in use;
* **degradation** — on a contended stream express must fall back to
  hop-by-hop (interrupts fire, dispatch counts stay near hop-by-hop's)
  rather than thrash.

``REPRO_BENCH_SMOKE=1`` shrinks the iteration counts for the CI smoke
step (see .github/workflows/ci.yml), keeping the structural assertions
intact.
"""

import time

from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator

from benchmarks.conftest import replay_bench_golden, run_once, smoke_mode

SMOKE = smoke_mode()

# Messages per timed run; each traverses several switch hops.
MESSAGES = 2_000 if SMOKE else 20_000
EQUIV_INSTRUCTIONS = 1_000 if SMOKE else 4_000


class _HopCounter:
    """Kernel tracer counting dispatches by label."""

    def __init__(self):
        self.counts = {}

    def record(self, label, seconds):
        self.counts[label] = self.counts.get(label, 0) + 1

    def hop_dispatches(self):
        return (self.counts.get("net.hop", 0)
                + self.counts.get("net.express", 0))


def _hop_stream(n_messages: int, express: bool = False):
    """A steady self-refuelling hop stream on a bare 4x4 network; also
    returns a running count of the hops delivered messages travelled."""
    sim = Simulator()
    topo = TorusTopology(4, 4)
    net = Network(sim, topo, RoutingTable(topo), express=express)
    remaining = [n_messages]
    hops = [0]

    def deliver(msg: Message) -> None:
        hops[0] += len(net.routing.path(msg.src, msg.dst)) - 1
        if remaining[0] > 0:
            remaining[0] -= 1
            net.send(Message(MessageKind.GETS, src=msg.dst,
                             dst=(msg.dst * 7 + 3) % 16))

    for nid in range(16):
        net.attach(nid, deliver)
    for src in range(16):
        net.send(Message(MessageKind.GETS, src=src, dst=(src + 5) % 16))
    return sim, net, hops


def test_hop_dispatch_throughput(benchmark):
    def experiment():
        sim, net, hops = _hop_stream(MESSAGES)
        tracer = _HopCounter()
        sim.tracer = tracer
        started = time.perf_counter()
        sim.run()
        return time.perf_counter() - started, hops[0], tracer.counts

    wall_s, hops, counts = run_once(experiment, benchmark)
    print(f"\nnetwork hop dispatch ({MESSAGES} messages): {hops:,} hops "
          f"in {wall_s:.3f}s ({hops / wall_s:,.0f} hops/s)")
    assert set(counts) == {"net.hop", "net.deliver"}, (
        f"hop stream dispatched events other than hops and delivery "
        f"flushes: {sorted(counts)}")
    assert counts["net.hop"] == hops, (
        f"{counts['net.hop']:,} hop dispatches for {hops:,} hops: slotted "
        f"scheduling must pay exactly one dispatch per hop")


def test_slotted_results_bit_identical(benchmark):
    def experiment():
        return {workload: replay_bench_golden(
                    f"4x4-{workload}-{EQUIV_INSTRUCTIONS}")
                for workload in ("apache", "jbb")}

    results = run_once(experiment, benchmark)
    for workload, record in results.items():
        result = record["result"]
        assert result["completed"] and not result["crashed"], workload
        assert result["committed_instructions"] >= EQUIV_INSTRUCTIONS * 16


# ----------------------------------------------------------------------
# Express hops
# ----------------------------------------------------------------------

# An express segment must cut per-hop dispatches at least this much on a
# stream whose switches are idle (one message in the network at a time).
MIN_EXPRESS_DISPATCH_REDUCTION = 1.5


def _idle_stream(express: bool, n_messages: int):
    """One message at a time crossing an 8x8 torus: every switch on the
    path is idle, so every network-path send is express-eligible."""
    sim = Simulator()
    topo = TorusTopology(8, 8)
    net = Network(sim, topo, RoutingTable(topo), express=express)
    tracer = _HopCounter()
    sim.tracer = tracer
    remaining = [n_messages]
    deliveries = []

    def deliver(msg: Message) -> None:
        deliveries.append((sim.now, msg.src, msg.dst))
        if remaining[0] > 0:
            remaining[0] -= 1
            # Long diagonal routes: plenty of idle switches to skip.
            net.send(Message(MessageKind.GETS, src=msg.dst,
                             dst=(msg.dst + 27) % 64))

    for nid in range(64):
        net.attach(nid, deliver)
    net.send(Message(MessageKind.GETS, src=0, dst=27))
    sim.run()
    return tracer, deliveries, net


def test_express_hop_dispatch_reduction(benchmark):
    """Idle 8x8 stream: express must replace most per-switch dispatches
    with one segment dispatch, without changing a single delivery."""
    n = 200 if SMOKE else 2_000

    def experiment():
        return _idle_stream(True, n), _idle_stream(False, n)

    express, slotted = run_once(experiment, benchmark)
    e_tracer, e_deliveries, e_net = express
    s_tracer, s_deliveries, _ = slotted

    assert e_deliveries == s_deliveries, (
        "express changed the delivery sequence on an idle stream")
    e_hops = e_tracer.hop_dispatches()
    s_hops = s_tracer.hop_dispatches()
    reduction = s_hops / e_hops
    print(f"\nidle 8x8 express stream ({n} messages):"
          f"\n  slotted: {s_hops:,} hop dispatches"
          f"\n  express: {e_hops:,} hop dispatches"
          f" ({e_tracer.counts.get('net.express', 0):,} segment events)"
          f"\n  reduction: {reduction:.2f}x")
    assert reduction >= MIN_EXPRESS_DISPATCH_REDUCTION, (
        f"express only cut hop dispatches {reduction:.2f}x on an idle "
        f"stream (floor {MIN_EXPRESS_DISPATCH_REDUCTION:.2f}x)")
    assert e_net.c_express_interrupts.value == 0, (
        "nothing contends on the idle stream; no flight should ever "
        "materialise")


def test_express_contended_stream_degrades(benchmark):
    """Contended 4x4 stream: express must fall back to hop-by-hop (the
    interruption rule) instead of thrashing commit/materialise cycles."""
    n = 1_000 if SMOKE else 5_000

    def experiment():
        sim_e, net_e, _ = _hop_stream(n, express=True)
        sim_e.run()
        sim_s, net_s, _ = _hop_stream(n, express=False)
        sim_s.run()
        return (sim_e.events_dispatched, net_e.c_express_interrupts.value,
                net_e.c_messages_delivered.value, sim_s.events_dispatched,
                net_s.c_messages_delivered.value)

    e_events, e_interrupts, e_delivered, s_events, s_delivered = \
        run_once(experiment, benchmark)

    assert e_delivered == s_delivered
    # Express may not *add* meaningful dispatch load under contention:
    # the adaptive credit gate stops probing once interruptions dominate.
    assert e_events <= s_events * 1.10, (
        f"express dispatched {e_events:,} events on a contended stream vs "
        f"{s_events:,} without express — the fallback is not engaging")
    print(f"\ncontended 4x4 stream ({n} messages): express {e_events:,} "
          f"events ({e_interrupts:,} interrupts), slotted {s_events:,}")


def test_express_results_bit_identical(benchmark):
    """Full-machine runs with express segments in use replay the golden
    runs that hop-by-hop and legacy scheduling also produced."""
    def experiment():
        return {workload: replay_bench_golden(
                    f"4x4-{workload}-{EQUIV_INSTRUCTIONS}")
                for workload in ("apache", "jbb")}

    results = run_once(experiment, benchmark)
    for workload, record in results.items():
        result = record["result"]
        assert result["completed"] and not result["crashed"], workload
        assert record["counters"]["net.express_flights"] > 0, (
            f"{workload}: no flight went express")
