"""Manager claims: a refused install leaks nothing, and no two
credentials' edges ever match the same packet (paper sec. 3.1).

The managers are the anti-snooping policy: an application names an
endpoint, the manager claims it in a :class:`PortSpace` and builds the
guard from it.  Two properties keep that policy honest:

* a claim the manager or the dispatcher refuses leaves every port
  space, both diverted-port sets, the TCP special-port set, every
  event's handler list and the graph's nodes as they were -- so a
  rejected install cannot lock another application out of an endpoint;
* every guard a manager builds carries its tests as data
  (``repro.core.filters``), so each event's application edges can be
  evaluated over a finite packet universe: two edges of different
  credentials must match disjoint sets.  The one declared overlap is an
  IP-level redirect against the kernel's own TCP / UDP input edge; the
  redirected port must then be in that transport's diverted set, which
  the TCP-standard guard's ``not in`` and the UDP upcall exclude.  A
  privileged credential's one extra right (``Credential``) is to claim a
  reserved number; its edge for a reserved ethertype or IP protocol,
  which the kernel serves too, is exempt.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.core import AccessError, Credential, KERNEL_CREDENTIAL
from repro.lang import ephemeral
from repro.net.headers import IPPROTO_TCP, IPPROTO_UDP
from repro.spin import DispatchError

ETHERTYPES = (0x0800, 0x88B5, 0x88B6)
PROTOCOLS = (IPPROTO_TCP, IPPROTO_UDP, 99, 100)
PORTS = (25, 7000, 8080, 9000, 9001)

#: how an install is asked for: (mode, ephemeral handler?, time_limit).
#: "plain" is refused by the manager, the two limits by the dispatcher.
VARIANTS = {
    "ok": ("inline", True, None),
    "thread": ("thread", False, None),
    "plain": ("inline", False, None),
    "negative_limit": ("inline", True, -1.0),
    "thread_limit": ("thread", False, 5.0),
}


@ephemeral
def _ephemeral(*args):
    pass


def _plain(*args):
    pass


def _install_args(variant):
    mode, is_ephemeral, limit = VARIANTS[variant]
    return (_ephemeral if is_ephemeral else _plain), mode, limit


def _state(stack):
    """Everything a refused claim must leave as it was."""
    tcp, udp = stack.tcp_manager, stack.udp_manager
    spaces = (udp.ports, tcp.ports, stack.ip_manager.protocols,
              stack.ethernet_manager.types)
    events = (stack.link_recv_event, stack.ip_recv_event,
              stack.udp_recv_event, stack.tcp_recv_event)
    return ([dict(space._owners) for space in spaces],
            set(tcp.special_ports), set(tcp.diverted_ports),
            set(udp.diverted_ports),
            [list(event.handlers) for event in events],
            sorted(stack.graph.nodes))


# ---------------------------------------------------------------------------
# a rejected install leaks its claim (regression)
# ---------------------------------------------------------------------------

class TestRefusedClaimLeaksNothing:
    def test_rejected_bind_frees_the_port(self, spin_pair):
        stack = spin_pair.stacks[1]
        a, b = Credential("a"), Credential("b")
        before = _state(stack)
        with pytest.raises(AccessError, match="EPHEMERAL"):
            stack.udp_manager.bind(a, 7000, _plain)
        assert _state(stack) == before
        stack.udp_manager.bind(b, 7000, _ephemeral)

    def test_rejected_redirect_leaves_no_diversion(self, spin_pair):
        stack = spin_pair.stacks[1]
        a, b = Credential("a"), Credential("b")
        before = _state(stack)
        with pytest.raises(DispatchError):
            stack.ip_manager.claim_port_redirect(
                a, IPPROTO_TCP, 8080, _ephemeral, time_limit=-1)
        assert _state(stack) == before
        assert stack.tcp_manager.diverted_ports == set()
        stack.tcp_manager.listen(b, 8080, lambda tcb: None)

    def test_half_refused_implementation_claims_no_port(self, spin_pair):
        stack = spin_pair.stacks[1]
        a, b = Credential("a"), Credential("b")
        stack.tcp_manager.listen(a, 9001, lambda tcb: None)
        before = _state(stack)
        with pytest.raises(AccessError, match="owned by a"):
            stack.tcp_manager.install_implementation(b, "special",
                                                     [9000, 9001])
        assert _state(stack) == before
        assert stack.tcp_manager.ports.owner(9000) is None

    @pytest.mark.parametrize("variant", ["plain", "negative_limit"])
    def test_rejected_link_and_ip_claims_free_the_number(self, spin_pair,
                                                        variant):
        stack = spin_pair.stacks[1]
        a, b = Credential("a"), Credential("b")
        handler, mode, limit = _install_args(variant)
        before = _state(stack)
        with pytest.raises((AccessError, DispatchError)):
            stack.ethernet_manager.claim_ethertype(a, 0x88B5, handler, mode,
                                                   limit)
        with pytest.raises((AccessError, DispatchError)):
            stack.ip_manager.claim_protocol(a, 99, handler, mode, limit)
        assert _state(stack) == before
        stack.ethernet_manager.claim_ethertype(b, 0x88B5, _ephemeral)
        stack.ip_manager.claim_protocol(b, 99, _ephemeral)

    def test_listen_on_a_listening_port_claims_nothing(self, spin_pair):
        stack = spin_pair.stacks[1]
        stack.tcp.listen(9000, lambda tcb: None)  # the kernel's own
        before = _state(stack)
        with pytest.raises(AccessError, match="already has a listener"):
            stack.tcp_manager.listen(Credential("a"), 9000, lambda tcb: None)
        assert _state(stack) == before

    def test_one_port_backs_one_edge(self, spin_pair):
        """A credential's second bind or redirect of a port it holds is
        refused: closing either would release the other's claim."""
        stack = spin_pair.stacks[1]
        a, b = Credential("a"), Credential("b")
        first = stack.udp_manager.bind(a, 7000, _ephemeral)
        with pytest.raises(AccessError, match="already claimed by a"):
            stack.udp_manager.bind(a, 7000, _ephemeral)
        redirect = stack.ip_manager.claim_port_redirect(
            a, IPPROTO_TCP, 8080, _ephemeral)
        with pytest.raises(AccessError, match="already claimed by a"):
            stack.ip_manager.claim_port_redirect(a, IPPROTO_TCP, 8080,
                                                 _ephemeral)
        first.close()
        redirect.uninstall()
        stack.udp_manager.bind(b, 7000, _ephemeral)
        assert stack.tcp_manager.diverted_ports == set()


# ---------------------------------------------------------------------------
# the anti-snooping claim, as a property
# ---------------------------------------------------------------------------

#: each event's packet universe, and how a test's source reads a packet.
_UNIVERSE = {
    "link": [(ethertype,) for ethertype in ETHERTYPES + (0x0806,)],
    "ip": [(protocol, port) for protocol in PROTOCOLS + (1,)
           for port in PORTS + (80,)],
    "udp": [(port,) for port in PORTS + (80,)],
    "tcp": [(port,) for port in PORTS + (80,)],
}
#: source -> index into a universe key, per event.
_SOURCES = {
    "link": {(1, None, 12): 0},
    "ip": {0: 0, (1, 2, 2): 1},
    "udp": {5: 0},
    "tcp": {(0, 1, 2): 0},
}
_OPS = {"==": lambda a, b: a == b, "in": lambda a, b: a in b,
        "not in": lambda a, b: a not in b}


def _matches(event, guard):
    """The universe keys ``guard`` matches on ``event``, from its tests."""
    if guard is None:
        return set(_UNIVERSE[event])
    sources = _SOURCES[event]
    return {key for key in _UNIVERSE[event]
            if all(_OPS[op](key[sources[source]], operand)
                   for source, op, operand in guard.tests)}


_credential = st.integers(0, 2)
_variant = st.sampled_from(sorted(VARIANTS))
_claims = st.lists(st.one_of(
    st.tuples(st.just("bind"), _credential, st.sampled_from(PORTS), _variant),
    st.tuples(st.just("claim_ethertype"), _credential,
              st.sampled_from(ETHERTYPES), _variant),
    st.tuples(st.just("claim_protocol"), _credential,
              st.sampled_from(PROTOCOLS), _variant),
    st.tuples(st.just("claim_port_redirect"), _credential,
              st.tuples(st.sampled_from((IPPROTO_TCP, IPPROTO_UDP)),
                        st.sampled_from(PORTS)), _variant),
    st.tuples(st.just("install_implementation"), _credential,
              st.lists(st.sampled_from(PORTS), min_size=1, max_size=3),
              st.just("ok")),
    st.tuples(st.just("listen"), _credential, st.sampled_from(PORTS),
              st.just("ok")),
    st.tuples(st.just("close"), st.integers(0, 7), st.just(None),
              st.just("ok")),
), min_size=1, max_size=25)


class _Claimer:
    """One stack, two or three credentials, the live installs."""

    def __init__(self, three):
        self.bed = build_testbed("spin", "ethernet")
        self.stack = self.bed.stacks[1]
        self.credentials = [Credential("alice"), Credential("bob"),
                            Credential("root", privileged=True)][:2 + three]
        #: handle -> credential, for every application edge.
        self.owner = {}
        #: what close / uninstall can undo.
        self.live = []
        self.implementations = 0

    def events(self):
        stack = self.stack
        return {"link": stack.link_recv_event, "ip": stack.ip_recv_event,
                "udp": stack.udp_recv_event, "tcp": stack.tcp_recv_event}

    def apply(self, op, who, what, variant):
        stack = self.stack
        if op == "close":
            if self.live:
                closer = self.live.pop(who % len(self.live))
                closer()
            return
        credential = self.credentials[who % len(self.credentials)]
        handler, mode, limit = _install_args(variant)
        before = {name: list(event.handlers)
                  for name, event in self.events().items()}
        if op == "bind":
            result = stack.udp_manager.bind(credential, what, handler, mode,
                                            limit)
            self.live.append(result.close)
        elif op == "claim_ethertype":
            result = stack.ethernet_manager.claim_ethertype(
                credential, what, handler, mode, limit)
            self.live.append(result.uninstall)
        elif op == "claim_protocol":
            result = stack.ip_manager.claim_protocol(
                credential, what, handler, mode, limit)
            self.live.append(result.uninstall)
        elif op == "claim_port_redirect":
            result = stack.ip_manager.claim_port_redirect(
                credential, what[0], what[1], handler, mode, limit)
            self.live.append(result.uninstall)
        elif op == "install_implementation":
            self.implementations += 1
            stack.tcp_manager.install_implementation(
                credential, "special%d" % self.implementations, what)
        else:
            assert op == "listen"
            result = stack.tcp_manager.listen(credential, what,
                                              lambda tcb: None)
            self.live.append(result.close)
        for name, event in self.events().items():
            for handle in event.handlers:
                if handle not in before[name]:
                    self.owner[handle] = credential

    def _claims_reserved(self, name, owner, guard):
        """Whether the edge is a privileged claim of a reserved number."""
        spaces = {"link": self.stack.ethernet_manager.types,
                  "ip": self.stack.ip_manager.protocols}
        return (owner.privileged and owner is not KERNEL_CREDENTIAL
                and name in spaces and len(guard.tests) == 1
                and guard.tests[0][2] in spaces[name].reserved)

    def check_disjoint(self):
        tcp, udp = self.stack.tcp_manager, self.stack.udp_manager
        diverted = {IPPROTO_TCP: tcp.diverted_ports,
                    IPPROTO_UDP: udp.diverted_ports}
        for name, event in self.events().items():
            edges = []
            for handle in event.handlers:
                owner = self.owner.get(handle, KERNEL_CREDENTIAL)
                if not self._claims_reserved(name, owner, handle.guard):
                    edges.append((owner, _matches(name, handle.guard)))
            for i, (owner_a, keys_a) in enumerate(edges):
                for owner_b, keys_b in edges[i + 1:]:
                    if owner_a is owner_b:
                        continue
                    overlap = keys_a & keys_b
                    if name == "ip" and KERNEL_CREDENTIAL in (owner_a,
                                                             owner_b):
                        # The declared overlap: a redirect under the
                        # kernel's transport input, whose port the
                        # transport then excludes.
                        overlap = {(protocol, port)
                                   for protocol, port in overlap
                                   if port not in diverted.get(protocol, ())}
                    assert not overlap, (name, owner_a, owner_b, overlap)


@given(three=st.booleans(), claims=_claims)
@settings(max_examples=150, deadline=None)
def test_claims_never_overlap_and_refusals_leak_nothing(three, claims):
    claimer = _Claimer(three)
    for op, who, what, variant in claims:
        before = _state(claimer.stack)
        try:
            claimer.apply(op, who, what, variant)
        except (AccessError, DispatchError):
            assert _state(claimer.stack) == before, (op, variant)
        claimer.check_disjoint()
