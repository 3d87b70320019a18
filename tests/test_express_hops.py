"""Express hops vs hop-by-hop: bit-identical across seeds, shapes, faults.

Express advancement changes how idle path segments are *scheduled* (one
``net.express`` dispatch at segment end vs one ``net.hop`` dispatch per
switch), never what the network *does*: link claims, switch residency,
contention, and delivery order must be indistinguishable.  The delivery-
and claim-slotting rules (see the Network docstring) canonicalise the two
same-cycle tie classes express advancement would otherwise perturb.

Machine level: until the machine lost its hop-by-hop option, this suite
ran every cell both ways and held them bit-identical, including runs
where faults land mid-segment and force flights to materialise.
``tests/data/mode_golden.json`` keeps those runs; each cell here must
replay them exactly.  Network level: ``Network(express=False)`` is the
live reference for the materialisation tests below.

The idle-stream dispatch-reduction claim lives in
``benchmarks/test_network_hotpath.py``; this file is the correctness
sweep.
"""

import pytest

from golden import assert_replays, load_mode_records
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator

CELLS = load_mode_records("express")
SWEEP = sorted(cell for cell in CELLS if cell != "mid-segment-drop")


@pytest.mark.parametrize("cell", SWEEP)
def test_modes_bit_identical(cell):
    assert_replays(CELLS[cell])


def _segment_network(express: bool):
    """A bare 8x8 network carrying one long-haul message (express covers
    the whole segment) and the hooks to observe it."""
    sim = Simulator()
    topo = TorusTopology(8, 8)
    net = Network(sim, topo, RoutingTable(topo), express=express)
    delivered = []
    for nid in range(64):
        net.attach(nid, lambda m: delivered.append((sim.now, m.src, m.dst)))
    return sim, net, delivered


def test_drop_fault_lands_mid_segment_on_correct_switch():
    """An unmanaged drop hook added while a flight is mid-express-segment
    must force materialisation, and the hook must then observe the flight
    at exactly the switch hop-by-hop scheduling would put it in."""
    observed = {}

    def reference():
        sim, net, delivered = _segment_network(express=False)
        seen = []
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        sim.run(limit=40)            # mid-flight
        net.add_drop_hook(lambda msg, vertex: seen.append(
            (sim.now, vertex)) and False)
        sim.run()
        return seen, delivered

    def with_express():
        sim, net, delivered = _segment_network(express=True)
        seen = []
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        sim.run(limit=40)
        assert net._express_flights, "flight should be mid-express-segment"
        # add_drop_hook (unmanaged) holds express, which materialises the
        # in-flight segment at the current cycle.
        net.add_drop_hook(lambda msg, vertex: seen.append(
            (sim.now, vertex)) and False)
        assert not net._express_flights, "hook must force materialisation"
        sim.run()
        return seen, delivered

    observed["ref"] = reference()
    observed["exp"] = with_express()
    assert observed["exp"] == observed["ref"], (
        "materialised flight visited different switches than hop-by-hop\n"
        f"  express   : {observed['exp']}\n  reference : {observed['ref']}")
    # The scenario must exercise the machinery: the hook saw switches.
    assert observed["ref"][0], "hook observed no switch traversals"


def test_transient_mid_segment_drop_machine_equivalent():
    """Machine-level: a drop fault whose armed window opens while express
    segments are live produced identical recoveries with express on and
    off; the hold/release protocol brackets each armed window, so the
    drop lands inside a switch both agree on."""
    fresh = assert_replays(CELLS["mid-segment-drop"])
    assert fresh["result"]["recoveries"] > 0, "scenario fired no recovery"
    assert fresh["counters"]["net.express_flights"] > 0
