"""Figure 5 against its closed form (``latency_model.py``).

Each cell ``repro.bench.latency`` measures must equal the model's round
trip, and each host's charges in one steady trip -- the category deltas
between a run of three trips and one of four -- must equal the model's
steps folded by category.  A charge booked twice or dropped, a wire time
taken from the wrong length, or a frame sent before its hold ends moves
one of the two.

The floor is measured on a 50-byte frame on every device, while the UDP
datagram's frame is 50 bytes on the Ethernet, 36 on the ATM and 36 on
the T3.  So "floor plus both hosts' stack CPU" misses each UDP cell on
ATM and T3 by a residual no model term names yet: it is pinned below as
an open residual, by device, not folded into the model.
"""

import pytest

from latency_model import (CELLS, categories, hidden_us, host_steps, rtt_us)
from repro.bench import latency
from repro.bench.latency import _pingpong
from repro.bench.testbed import build_raw_pair, build_testbed
from repro.sim import Signal

#: Cell minus (floor + 2 x (stack CPU - hidden)), by device: the floor's
#: 50-byte frame against the UDP frame -- on ATM two AAL5 cells for one
#: on four wire crossings and 14 bytes more programmed I/O each way, on
#: T3 14 wire bytes more on two crossings.
OPEN_RESIDUALS_US = {"ethernet": 0.0, "atm": -17.941935484,
                     "t3": -4.977777778}

#: What the floor already holds: the driver and the interrupt.
FLOOR_CATEGORIES = ("driver", "driver-pio", "interrupt")


def _cell_id(cell):
    device, system, fast = cell
    return "%s%s/%s" % (device, "-fast" if fast else "", system)


def measured(device, system, fast):
    """The cell as ``repro.bench.latency`` measures it (its 20 trips)."""
    return latency.measure_rtt(device, system, fast).mean


def _raw_hosts(device, fast, trips):
    """``measure_raw_rtt``'s ping-pong, ``trips`` times: both hosts."""
    engine, initiator, responder, nic_a, nic_b = build_raw_pair(
        device, fast_driver=fast)
    reply_seen = Signal(engine)
    initiator.on_frame = lambda data: initiator.defer(reply_seen.fire)

    def ping_loop():
        for _ in range(trips):
            waiter = reply_seen.wait()
            yield from initiator.kernel_path(
                lambda: nic_a.stage_tx(bytes(50), nic_b.address))
            yield waiter
    engine.run_process(ping_loop())
    return [initiator, responder]


def charged(device, system, fast, trips):
    """Each host's ``cpu.category_times`` after ``trips`` trips."""
    if system == "raw-driver":
        hosts = _raw_hosts(device, fast, trips)
    else:
        thread = system == "plexus-thread"
        bed = build_testbed("unix" if system == "digital-unix" else "spin",
                            device, fast_driver=fast,
                            deliver_mode="thread" if thread else "interrupt")
        scenario = {} if system == "digital-unix" else {
            "mode": "thread" if thread else "inline"}
        _pingpong(bed, trips, **scenario)
        hosts = bed.hosts
    return [dict(host.cpu.category_times) for host in hosts]


def trip_charges(cell):
    """Each host's charges in one steady trip, by category."""
    trips = []
    for before, after in zip(charged(*cell, 3), charged(*cell, 4)):
        trips.append({category: after[category] - before.get(category, 0.0)
                      for category in after
                      if after[category] != before.get(category, 0.0)})
    return trips


@pytest.mark.parametrize("cell", CELLS, ids=map(_cell_id, CELLS))
def test_each_cell_is_its_closed_form(cell):
    assert measured(*cell) == pytest.approx(rtt_us(*cell), rel=1e-9)


@pytest.mark.parametrize("cell", CELLS, ids=map(_cell_id, CELLS))
def test_each_host_charges_the_modelled_steps(cell):
    model = categories(host_steps(*cell))
    for trip in trip_charges(cell):
        assert trip == pytest.approx(model, rel=1e-9)


@pytest.mark.parametrize("cell", [cell for cell in CELLS
                                  if cell[1] != "raw-driver"],
                         ids=_cell_id)
def test_floor_plus_stack_leaves_the_pinned_residual(cell):
    device, system, fast = cell
    floor = measured(device, "raw-driver", fast)
    trip = trip_charges(cell)[0]
    stack = sum(amount for category, amount in trip.items()
                if category not in FLOOR_CATEGORIES)
    residual = measured(*cell) - (
        floor + 2 * (stack - hidden_us(*cell)))
    assert residual == pytest.approx(OPEN_RESIDUALS_US[device], abs=1e-9)


def test_the_overlap_is_the_recvfrom_entry():
    """DIGITAL UNIX hides its ``recvfrom`` entry -- a trap and the
    socket layer, 34 us -- on every device; nothing else overlaps."""
    for cell in CELLS:
        expected = 34.0 if cell[1] == "digital-unix" else 0.0
        assert hidden_us(*cell) == expected
