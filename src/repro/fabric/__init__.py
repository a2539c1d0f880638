"""repro.fabric: a fat-tree of route-table switches on the protocol graph.

The paper argues that application-specific protocol code composes safely
onto a shared substrate; this package stretches that substrate from
point-to-point testbeds to a multi-hop fabric.  A :class:`SwitchHost` is
a SPIN kernel whose only "application" is one longest-prefix route
table on the destination address, whose values are egress-port groups
(more than one port: a seeded ECMP hash), raised through the ordinary
dispatcher -- so generated dispatch code and the chaos conservation
invariants apply to switches exactly as they do to end hosts.

:func:`fat_tree` wires hosts and switches into a single-engine
:class:`FabricBed`; :class:`OpenLoopSource` models user populations as
open-loop arrival processes (Poisson / Pareto).
"""

from .ecmp import ecmp_select
from .switch import SwitchHost, FabricPort
from .table import PacketFields
from .topology import FabricBed, fat_tree, schedule_core_avoidance
from .traffic import OpenLoopSource

__all__ = [
    "PacketFields", "SwitchHost", "FabricPort", "ecmp_select",
    "FabricBed", "fat_tree", "schedule_core_avoidance", "OpenLoopSource",
]
