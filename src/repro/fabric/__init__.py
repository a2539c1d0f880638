"""repro.fabric: a match-action switch data plane on the protocol graph.

The paper argues that application-specific protocol code composes safely
onto a shared substrate; this package stretches that substrate from
point-to-point testbeds to programmable multi-hop fabrics.  A
:class:`SwitchHost` is a SPIN kernel whose only "application" is a
match-action pipeline (tables of exact and longest-prefix rules, actions
forward / drop / modify-field / count) raised through the ordinary
dispatcher -- so generated dispatch code and the chaos conservation
invariants apply to switches exactly as they do to end hosts.

On top of the data plane sit topology builders (:func:`fat_tree`,
:func:`leaf_spine`, :func:`linear_chain`) that emit a single-engine
:class:`FabricBed`, plus a deterministic seeded ECMP hash and an
open-loop traffic source (Poisson / Pareto arrivals) for modelling user
populations as arrival processes.
"""

from .ecmp import ecmp_select
from .switch import SwitchHost, FabricPort
from .table import (
    Count,
    Drop,
    Forward,
    MatchTable,
    Modify,
    PacketFields,
    refold_checksums,
)
from .topology import (
    FabricBed,
    fat_tree,
    leaf_spine,
    linear_chain,
    schedule_core_avoidance,
)
from .traffic import OpenLoopSource

__all__ = [
    "Count", "Drop", "Forward", "Modify", "MatchTable", "PacketFields",
    "refold_checksums", "SwitchHost", "FabricPort", "ecmp_select",
    "FabricBed", "fat_tree", "leaf_spine", "linear_chain",
    "schedule_core_avoidance", "OpenLoopSource",
]
