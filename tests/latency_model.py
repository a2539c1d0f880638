"""Figure 5 in closed form: an analytic oracle for the UDP round trip.

Every Figure 5 cell -- the driver-to-driver floor, Plexus at interrupt
level, Plexus in kernel threads and DIGITAL UNIX, on the Ethernet, the
Fore ATM and the T3, plus the two fast-driver rows -- is computed here
without running the simulator.  The inputs are the ``CostTable`` fields
(``hw/alpha.py``), each device's driver profile and ``wire_bytes``
(``hw/nic.py``), and each medium's bandwidth, propagation and forwarding
latency as the testbed builds them (``bench/testbed.py``).

A trip is the paper's path (section 4): each host sends one datagram and
receives one.  :func:`host_steps` lists every CPU charge one host makes
in one trip, each named after the step it models; the two hosts of a
cell charge the same steps.  The round trip is both hosts' CPU on the
critical path plus two flights (:func:`flight_us`), less what runs
while a frame is on the wire (:func:`hidden_us`).  The model is linear
in the cost fields, with ``min`` for the overlap.
"""

from repro.bench.testbed import _make_medium, _make_nic
from repro.hw.alpha import ALPHA_21064, MICROSECONDS_PER_SECOND
from repro.hw.link import Switch
from repro.net.headers import (ETHERNET_HEADER, IP_HEADER, PSEUDO_HEADER_LEN,
                               UDP_HEADER)
from repro.sim import Engine

#: Figure 5's message: "small (8 byte) UDP/IP messages".
PAYLOAD = 8
#: The frame ``repro.bench.latency.measure_raw_rtt`` bounces on every
#: device (the floor).
FLOOR_FRAME = 50

DEVICES = ("ethernet", "atm", "t3")
SYSTEMS = ("raw-driver", "plexus-interrupt", "plexus-thread", "digital-unix")
#: ``(device, system, fast driver)`` for every cell of the figure.
CELLS = ([(device, system, False) for device in DEVICES for system in SYSTEMS]
         + [("ethernet", "plexus-interrupt", True),
            ("atm", "plexus-interrupt", True)])

#: Guards evaluated per raise on the receive path, by event: the kernel
#: edges of Figure 1.  The link event carries the IP and ARP edges on
#: Ethernet and one unguarded IP edge on a raw link; IP.PacketRecv the
#: UDP, TCP and ICMP edges; UDP.PacketRecv the bound endpoint's port.
GUARDS = {"ethernet": (2, 3, 1), "atm": (0, 3, 1), "t3": (0, 3, 1)}


def hardware(device, fast=False):
    """The device's NIC and medium, as the testbed builds them."""
    engine = Engine()
    return _make_nic(engine, device, 1, fast), _make_medium(engine, device)


def frame_len(device, system):
    """The bytes a driver moves: the floor's fixed frame, or the link
    header (Ethernet only; ATM and T3 carry IP directly), IP, UDP and
    the payload."""
    if system == "raw-driver":
        return FLOOR_FRAME
    link = ETHERNET_HEADER.size if device == "ethernet" else 0
    return link + IP_HEADER.size + UDP_HEADER.size + PAYLOAD


def wire_us(nic, medium, length):
    """Transmission time of a frame: its ``wire_bytes`` (padding, CRC and
    preamble, or AAL5 cells, or framing), not its length."""
    return (nic.wire_bytes(length) * 8.0 / medium.bandwidth_bps
            * MICROSECONDS_PER_SECOND)


def flight_us(nic, medium, length):
    """From the end of the sender's CPU hold to the receiver's interrupt:
    the wire, propagation, and the device's receive latency."""
    wire = wire_us(nic, medium, length)
    if isinstance(medium, Switch):
        # The Fore switch: the uplink's wire and propagation, the
        # forwarding latency, then the egress lane's wire and
        # propagation.  A ping-pong has one frame in flight, so the
        # egress FIFO is idle: its start, max(ready, free_at), is ready.
        port = medium.new_port()
        wire = (wire + port.propagation_us + medium.forward_latency_us
                + wire + port.propagation_us)
    else:
        wire += medium.propagation_us
    return wire + nic.profile.rx_latency_us


def _driver(costs, nic, length):
    """The device driver both systems share ("both systems use the same
    network device driver"), and the interrupt that enters it."""
    profile = nic.profile
    return [
        ("driver", profile.fixed_tx, "driver transmit"),
        ("driver-pio", length * profile.pio_tx_per_byte,
         "programmed I/O of the transmitted frame"),
        ("interrupt", costs.interrupt_entry, "interrupt entry"),
        ("driver", profile.fixed_rx, "driver receive"),
        ("driver-pio", length * profile.pio_rx_per_byte,
         "programmed I/O of the received frame"),
        ("interrupt", costs.interrupt_exit, "interrupt exit"),
    ]


def _udp_ip(costs):
    """The shared UDP/IP/link code on one send and one receive: an mbuf,
    the layer's fixed cost and each checksum, per direction."""
    udp_sum = (PSEUDO_HEADER_LEN + UDP_HEADER.size + PAYLOAD) \
        * costs.checksum_per_byte
    ip_sum = IP_HEADER.size * costs.checksum_per_byte
    return [
        ("mbuf", costs.mbuf_alloc, "send: the datagram's mbuf"),
        ("protocol", costs.udp_output, "UDP output"),
        ("checksum", udp_sum, "UDP checksum: pseudo-header, header, payload"),
        ("protocol", costs.ip_output, "IP output"),
        ("checksum", ip_sum, "IP header checksum on output"),
        ("protocol", costs.ethernet_output, "link output"),
        ("protocol", costs.ethernet_input, "link input"),
        ("mbuf", costs.mbuf_alloc, "receive: the frame's mbuf"),
        ("protocol", costs.ip_input, "IP input"),
        ("checksum", ip_sum, "IP header checksum on input"),
        ("protocol", costs.udp_input, "UDP input"),
        ("checksum", udp_sum, "UDP checksum verified"),
    ]


def _plexus(costs, device, thread):
    """Plexus (sections 2 and 3): the send capability's raise, and one
    raise per protocol-graph event on receive -- each guard evaluated,
    the matching handler invoked, and in thread mode a kernel thread
    spawned and woken for it (the thread bars)."""
    steps = [("dispatch", costs.dispatch_per_handler,
              "PacketSend raise through the manager's send capability")]
    for event, guards in zip(("link", "IP", "UDP"), GUARDS[device]):
        steps.append(("dispatch", guards * costs.guard_eval,
                      "%s.PacketRecv guards" % event))
        steps.append(("dispatch", costs.dispatch_per_handler,
                      "%s.PacketRecv handler invocation" % event))
        if thread:
            steps.append(("thread", costs.thread_spawn + costs.process_wakeup,
                          "%s.PacketRecv handler thread" % event))
    return steps


def recvfrom_entry(costs):
    """DIGITAL UNIX's ``recvfrom`` before it blocks: a trap and the
    socket layer, run right after the host's own ``sendto``."""
    return [("syscall", costs.syscall_trap, "recvfrom trap"),
            ("socket", costs.socket_layer, "recvfrom socket layer")]


def _unix(costs):
    """DIGITAL UNIX (section 4): user-level sockets around the same
    stack -- a ``sendto`` syscall with its copy in, and on receive the
    socket-buffer append, the wakeup, the context switch to the blocked
    process and the copy out."""
    copy = PAYLOAD * costs.copy_per_byte
    return [
        ("syscall", costs.syscall_trap, "sendto trap"),
        ("socket", costs.socket_layer, "sendto socket layer"),
        ("copyin", copy, "sendto copy in"),
        ("socket", costs.sockbuf_enqueue, "socket buffer append"),
        ("sched", costs.process_wakeup, "wakeup of the blocked reader"),
        ("sched", costs.context_switch, "context switch to the reader"),
        ("copyout", copy, "recvfrom copy out"),
    ] + recvfrom_entry(costs)


def host_steps(device, system, fast=False, costs=ALPHA_21064):
    """Every CPU charge one host makes in one steady trip, as
    ``(category, microseconds, step)``."""
    nic, _medium = hardware(device, fast)
    steps = _driver(costs, nic, frame_len(device, system))
    if system == "raw-driver":
        return steps
    steps += _udp_ip(costs)
    if system == "digital-unix":
        return steps + _unix(costs)
    return steps + _plexus(costs, device, system == "plexus-thread")


def categories(steps):
    """The steps folded by category, as ``cpu.category_times`` books
    them (a category charged nothing is absent)."""
    folded = {}
    for category, amount, _step in steps:
        if amount:
            folded[category] = folded.get(category, 0.0) + amount
    return folded


def hidden_us(device, system, fast=False, costs=ALPHA_21064):
    """CPU time off the critical path, per host and trip.

    DIGITAL UNIX's ``recvfrom`` entry runs after the host's ``sendto``
    hold, while its datagram is on the wire: it is hidden for as long as
    the reply takes to come back -- two flights and the peer's CPU.
    Plexus and the floor run nothing beside a frame in flight."""
    if system != "digital-unix":
        return 0.0
    entry = sum(amount for _c, amount, _s in recvfrom_entry(costs))
    nic, medium = hardware(device, fast)
    host = sum(amount for _c, amount, _s in host_steps(device, system, fast,
                                                        costs))
    until_reply = 2 * flight_us(nic, medium, frame_len(device, system)) \
        + host - entry
    return min(entry, until_reply)


def rtt_us(device, system, fast=False, costs=ALPHA_21064):
    """The cell: both hosts' CPU on the critical path, and two flights."""
    nic, medium = hardware(device, fast)
    host = sum(amount for _c, amount, _s in host_steps(device, system, fast,
                                                        costs))
    critical = host - hidden_us(device, system, fast, costs)
    return 2 * critical + 2 * flight_us(nic, medium,
                                        frame_len(device, system))
