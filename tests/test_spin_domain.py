"""Tests for logical protection domains (paper section 2)."""

import pytest

from repro.spin import Domain, DomainError, Interface, UnresolvedSymbol


def make_ethernet_interface():
    return Interface("Ethernet", {
        "PacketRecv": object(),
        "InstallHandler": lambda *a: None,
    })


class TestInterface:
    def test_lookup(self):
        iface = make_ethernet_interface()
        assert callable(iface.lookup("InstallHandler"))

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            make_ethernet_interface().lookup("Nope")

    def test_dotted_name_rejected(self):
        with pytest.raises(DomainError):
            Interface("A.B")

    def test_qualified_symbol_rejected(self):
        with pytest.raises(DomainError):
            Interface("A", {"B.C": 1})


class TestDomain:
    def test_resolve(self):
        domain = Domain("d", [make_ethernet_interface()])
        assert domain.resolve("Ethernet.PacketRecv") is not None

    def test_unresolved_interface(self):
        domain = Domain("d")
        with pytest.raises(UnresolvedSymbol, match="not visible"):
            domain.resolve("Ethernet.PacketRecv")

    def test_unresolved_symbol_in_known_interface(self):
        domain = Domain("d", [make_ethernet_interface()])
        with pytest.raises(UnresolvedSymbol):
            domain.resolve("Ethernet.Secret")

    def test_unqualified_name_rejected(self):
        domain = Domain("d")
        with pytest.raises(DomainError):
            domain.resolve("PacketRecv")

    def test_can_resolve(self):
        iface = make_ethernet_interface()
        domain = Domain("d", [iface])
        assert domain.resolve("Ethernet.PacketRecv") is \
            iface.symbols["PacketRecv"]
        with pytest.raises(UnresolvedSymbol):
            domain.resolve("VM.MapPage")

    def test_copy_confers_same_access(self):
        """Capabilities can be copied and passed around (paper sec. 2)."""
        domain = Domain("d", [make_ethernet_interface()])
        clone = domain.copy()
        assert clone.resolve("Ethernet.PacketRecv") is \
            domain.resolve("Ethernet.PacketRecv")

    def test_copy_is_shallow_snapshot(self):
        domain = Domain("d", [make_ethernet_interface()])
        clone = domain.copy()
        domain.export_interface(Interface("Extra", {"X": 1}))
        assert domain.resolve("Extra.X") == 1
        with pytest.raises(UnresolvedSymbol):
            clone.resolve("Extra.X")

    def test_reexport_same_interface_ok(self):
        iface = make_ethernet_interface()
        domain = Domain("d", [iface])
        domain.export_interface(iface)  # idempotent

    def test_conflicting_export_rejected(self):
        domain = Domain("d", [Interface("X", {"v": 1})])
        with pytest.raises(DomainError):
            domain.export_interface(Interface("X", {"v": 2}))

    def test_domains_are_unforgeable(self):
        """There is no registry: without the object, no access."""
        domain = Domain("secret", [make_ethernet_interface()])
        fresh = Domain("secret")  # same name, no visibility
        with pytest.raises(UnresolvedSymbol):
            fresh.resolve("Ethernet.PacketRecv")
        assert domain.resolve("Ethernet.PacketRecv") is not None
