"""Recompute the golden digests and compare them with ``digests.json``.

The digests were recorded once per ``SIM_VERSION`` (see ``cells.py``), so
these tests pin behaviour across commits, not only between two code
paths of one commit. A mismatch means simulated behaviour changed: either
the change is a bug, or it is intended and needs a ``SIM_VERSION`` bump
plus a new recording.
"""

import pytest

from repro.core.version import SIM_VERSION
from tests.golden import cells


@pytest.fixture(scope="module")
def golden():
    recorded = cells.recorded()
    assert recorded, f"no golden digests recorded for SIM_VERSION {SIM_VERSION!r}"
    return recorded


def test_every_cell_is_recorded(golden):
    assert sorted(golden) == sorted(cells.CELLS)


@pytest.mark.parametrize("name", sorted(set(cells.CELLS) - set(cells.DAEMON_CELLS)))
def test_cell_matches_recorded_digest(golden, name):
    assert cells.compute(name) == golden[name]


@pytest.mark.parametrize("name", cells.DAEMON_CELLS)
def test_daemon_cell_matches_recorded_digest(golden, name):
    """The daemon cells pin the KLOC daemon's candidate order, which only
    holds while their daemon actually moves pages."""
    payload, moved = cells.kloc_cell(name)
    assert cells.digest(payload) == golden[name]
    assert moved >= 1, f"{name}: the KLOC daemon moved no page"


def test_tracing_does_not_change_the_run(golden):
    """An attached tracer (every category on) is a pure observer: the
    traced cell's payload is byte-identical to the untraced one, and its
    event stream is the one recorded when traced runs still took a
    separate per-access path."""
    payload, tracer = cells.traced_two_tier("cassandra", "klocs")
    assert payload == cells.two_tier_payload("cassandra", "klocs")
    assert cells.digest(payload) == golden["two_tier/cassandra/klocs"]
    assert cells.digest(cells.event_stream(tracer)) == golden["trace/cassandra/klocs"]
    assert tracer.counts_by_name("free"), "the traced cell emitted no free events"
