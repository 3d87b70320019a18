"""Routing tables replay the committed route golden exactly.

``tests/data/route_golden.json`` holds, per case, a digest of every
ordered node pair's route in display form, captured from the original
networkx Dijkstra.  Route choice feeds every hop's contention and timing,
so a tie broken differently — e.g. the other way round a ring — would
move simulated cycles; this replay pins the tie-break order per shape and
after every single half-switch kill on 4x4 and 3x5.
"""

from __future__ import annotations

import pytest

from gen_protocol_golden import route_case_specs, route_record
from golden import load_route_records

ROUTE_RECORDS = load_route_records()
CASES = list(route_case_specs())


def test_golden_covers_every_case():
    assert {case for case, *_ in CASES} == set(ROUTE_RECORDS)
    assert len(CASES) == 6 + 32 + 30  # shapes + 4x4 kills + 3x5 kills


@pytest.mark.parametrize("case,width,height,killed", CASES,
                         ids=[case for case, *_ in CASES])
def test_routes_match_golden(case, width, height, killed):
    assert route_record(width, height, killed) == ROUTE_RECORDS[case]
