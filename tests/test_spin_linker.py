"""Tests for the dynamic linker (paper section 2)."""

import pytest

from repro.spin import (
    Domain,
    DynamicLinker,
    Extension,
    Interface,
    LinkError,
    compile_extension,
)


@pytest.fixture
def domain():
    return Domain("app", [
        Interface("UDP", {"Bind": lambda *a: "bound"}),
        Interface("Mbuf", {"Alloc": lambda: "mbuf"}),
    ])


@pytest.fixture
def linker():
    return DynamicLinker()


class TestLinking:
    def test_link_resolves_imports(self, domain, linker):
        seen = {}

        def init(env):
            seen.update(env)
            return []
        ext = compile_extension("app", ["UDP.Bind", "Mbuf.Alloc"], init)
        linked = linker.link(ext, domain)
        assert set(seen) == {"UDP.Bind", "Mbuf.Alloc"}
        assert linked.extension.name == "app"
        assert linked in linker.linked

    def test_init_runs_with_resolved_objects(self, domain, linker):
        seen = []
        ext = compile_extension("app", ["UDP.Bind"],
                                lambda env: seen.append(env["UDP.Bind"]()))
        linked = linker.link(ext, domain)
        assert seen == ["bound"]
        assert linked.installed_state is None

    def test_unresolved_symbol_fails_link(self, domain, linker):
        """'If an extension references a symbol that is not contained
        within the logical protection domain ... the link will fail.'"""
        ext = compile_extension("snooper", ["Ethernet.PacketRecv"],
                                lambda env: None)
        with pytest.raises(LinkError, match="unresolved"):
            linker.link(ext, domain)
        assert linker.rejected_count == 1

    def test_partial_resolution_fails_whole_link(self, domain, linker):
        ran = []
        ext = compile_extension("mixed", ["UDP.Bind", "VM.MapPage"],
                                lambda env: ran.append(True))
        with pytest.raises(LinkError):
            linker.link(ext, domain)
        assert not ran  # init must never run on a failed link

    def test_unsigned_extension_rejected(self, domain, linker):
        ext = Extension("rogue", ["UDP.Bind"], lambda env: None)
        with pytest.raises(LinkError, match="not signed"):
            linker.link(ext, domain)

    def test_tampered_imports_invalidate_signature(self, domain, linker):
        ext = compile_extension("sneaky", ["UDP.Bind"], lambda env: None)
        ext.imports.append("VM.MapPage")  # tamper after signing
        with pytest.raises(LinkError, match="not signed"):
            linker.link(ext, domain)

    def test_wider_domain_allows_more(self, linker):
        app = Domain("app", [Interface("UDP", {"Bind": 1})])
        kernel = app.copy("k")
        kernel.export_interface(Interface("VM", {"MapPage": 2}))
        ext = compile_extension("driver", ["VM.MapPage"], lambda env: None)
        with pytest.raises(LinkError):
            linker.link(ext, app)
        linker.link(ext, kernel)  # privileged domain: fine


class TestUnlinking:
    def test_unlink_uninstalls_handles(self, domain, linker):
        class Handle:
            def __init__(self):
                self.uninstalled = False

            def uninstall(self):
                self.uninstalled = True

        handle = Handle()
        ext = compile_extension("app", ["UDP.Bind"], lambda env: [handle])
        linked = linker.link(ext, domain)
        linker.unlink(linked)
        assert handle.uninstalled
        assert linked.unlinked
        assert linked not in linker.linked

    def test_unlink_single_handle(self, domain, linker):
        class Handle:
            uninstalled = False

            def uninstall(self):
                self.uninstalled = True
        handle = Handle()
        ext = compile_extension("app", ["UDP.Bind"], lambda env: handle)
        linked = linker.link(ext, domain)
        linker.unlink(linked)
        assert handle.uninstalled

    def test_double_unlink_rejected(self, domain, linker):
        ext = compile_extension("app", ["UDP.Bind"], lambda env: [])
        linked = linker.link(ext, domain)
        linker.unlink(linked)
        with pytest.raises(LinkError):
            linker.unlink(linked)

    def test_relink_after_unlink(self, domain, linker):
        """Extensions 'come and go with their corresponding applications'."""
        count = {"inits": 0}

        def init(env):
            count["inits"] += 1
            return []
        ext = compile_extension("app", ["UDP.Bind"], init)
        linked = linker.link(ext, domain)
        linker.unlink(linked)
        linker.link(ext, domain)
        assert count["inits"] == 2
