"""What a workload hands the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed operation.  ``run(api)`` is the only code inside the timed
    region; ``check(output)`` runs after it, against independent oracles.
    ``work`` is the op's units of work, counted when the check passes."""

    kind: str
    work: int
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    info: dict = field(default_factory=dict)


def decode(api, fmt: str, data):
    """The program's reader for an input in one of the three forms it takes:
    graph6 bytes, edge-list text, or an (n, edges) list."""
    if fmt == "g6":
        return api.from_graph6(data)
    if fmt == "el":
        return api.from_edge_list_text(data)
    return api.from_edge_list(*data)


@dataclass
class Workload:
    """``ops`` make one round; ``extras`` run only after the traced round;
    ``warm`` is the JSON input of the workload's warm-up calls."""

    ops: list[Op]
    warm: dict
    extras: list[Op] = field(default_factory=list)
