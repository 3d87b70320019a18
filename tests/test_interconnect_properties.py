"""Property-based tests for the torus substrate."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingError, RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def half_switch_strategy(width=4, height=4):
    return st.builds(
        HalfSwitchId,
        plane=st.sampled_from(["ew", "ns"]),
        x=st.integers(0, width - 1),
        y=st.integers(0, height - 1),
    )


@settings(**SETTINGS)
@given(half=half_switch_strategy())
def test_single_half_switch_death_never_partitions(half):
    topo = TorusTopology(4, 4)
    topo.kill_half_switch(half)
    assert topo.is_connected()
    routing = RoutingTable(topo)
    dead = topo.switch_id(half)
    for s in range(16):
        for d in range(16):
            if s != d:
                assert dead not in routing.path(s, d)


@settings(**SETTINGS)
@given(halves=st.sets(half_switch_strategy(), min_size=2, max_size=4))
def test_multi_switch_death_either_routes_or_reports_partition(halves):
    topo = TorusTopology(4, 4)
    for half in halves:
        topo.kill_half_switch(half)
    if topo.is_connected():
        routing = RoutingTable(topo)  # must not raise
        dead = {topo.switch_id(half) for half in halves}
        assert topo.dead_vertices == dead
        for s in range(0, 16, 5):
            for d in range(16):
                if s != d:
                    assert not (set(routing.path(s, d)) & dead)
    else:
        with pytest.raises(RoutingError):
            RoutingTable(topo)


@settings(**SETTINGS)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=1, max_size=30,
    ),
    data=st.booleans(),
)
def test_message_conservation(pairs, data):
    """Every injected message is eventually delivered (fault-free) —
    none duplicated, none lost."""
    sim = Simulator()
    topo = TorusTopology(4, 4)
    net = Network(sim, topo, RoutingTable(topo), stats=StatsRegistry())
    delivered = []
    for n in range(16):
        net.attach(n, delivered.append)
    sent = []
    kind = MessageKind.DATA if data else MessageKind.GETS
    for s, d in pairs:
        msg = Message(kind, src=s, dst=d, data=1 if data else None)
        sent.append(msg.msg_id)
        net.send(msg)
    sim.run(limit=1_000_000)
    assert sorted(m.msg_id for m in delivered) == sorted(sent)
    assert net.in_flight_count == 0


@settings(**SETTINGS)
@given(
    seed=st.integers(0, 1000),
    kill_after=st.integers(0, 2000),
    half=half_switch_strategy(),
)
def test_message_accounting_with_switch_kill(seed, kill_after, half):
    """With a dead switch: delivered + lost == sent, exactly."""
    sim = Simulator()
    topo = TorusTopology(4, 4)
    net = Network(sim, topo, RoutingTable(topo), stats=StatsRegistry())
    delivered, lost = [], []
    for n in range(16):
        net.attach(n, delivered.append)
    net.add_lost_listener(lambda m, why: lost.append(m))
    import random
    rng = random.Random(seed)
    sent = 0
    for i in range(40):
        s, d = rng.randrange(16), rng.randrange(16)
        if s != d:
            net.send(Message(MessageKind.GETS, src=s, dst=d))
            sent += 1
    sim.schedule(kill_after, lambda: net.kill_half_switch(half))
    sim.run(limit=1_000_000)
    assert len(delivered) + len(lost) == sent
    assert net.in_flight_count == 0
