"""Name-based registry of congestion-control schemes.

Experiments refer to schemes by short strings ("cubic", "newreno",
"aimd", or "tao" with an attached whisker tree); the registry turns those
names into fresh controller instances, one per sender, and into the
scheme's fluid kernel — both listed in one table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..remy.tree import WhiskerTree
from .aimd import AimdController
from .base import CongestionController, FluidKernel
from .cubic import CubicController, CubicFluid
from .dctcp import DCTCPController, DCTCPFluid
from .newreno import NewRenoController, NewRenoFluid
from .pcc import PCCController
from .remycc import RemyCCController, RemyCCFluid
from .vegas import VegasController, VegasFluid

__all__ = ["ControllerFactory", "make_controller", "register_scheme",
           "available_schemes", "fluid_kernel", "fluid_kernels"]

ControllerFactory = Callable[[], CongestionController]

#: name -> (packet controller, fluid kernel; ``None``: packet-only).
_BUILTIN = {
    "cubic": (CubicController, CubicFluid),
    "newreno": (NewRenoController, NewRenoFluid),
    "aimd": (AimdController, NewRenoFluid),
    "vegas": (VegasController, VegasFluid),
    "dctcp": (DCTCPController, DCTCPFluid),
    "pcc": (PCCController, None),
}

#: Names of the rule-table runtime: it takes a tree, so it has no row.
_RULE_TABLE = ("tao", "remycc", "learner")

_EXTRA: Dict[str, ControllerFactory] = {}


def register_scheme(name: str, factory: ControllerFactory) -> None:
    """Register a custom scheme under ``name`` (overrides allowed)."""
    _EXTRA[name] = factory


def available_schemes() -> list[str]:
    """Names accepted by :func:`make_controller` (besides "tao")."""
    return sorted(set(_BUILTIN) | set(_EXTRA))


def make_controller(name: str,
                    tree: Optional[WhiskerTree] = None,
                    record_usage: bool = False) -> CongestionController:
    """Build a fresh controller for one sender.

    ``name`` may be any registered scheme, or ``"tao"`` / ``"remycc"`` /
    ``"learner"`` — the rule-table runtime, which requires ``tree``.
    """
    if name in _RULE_TABLE:
        if tree is None:
            raise ValueError(f"scheme {name!r} requires a whisker tree")
        return RemyCCController(tree, record_usage=record_usage)
    if name in _EXTRA:
        return _EXTRA[name]()
    if name in _BUILTIN:
        return _BUILTIN[name][0]()
    raise ValueError(
        f"unknown scheme {name!r}; available: {available_schemes()}")


def fluid_kernel(name: str) -> Type[FluidKernel]:
    """The fluid kernel in ``name``'s row; ``ValueError`` naming the
    scheme and the reason if the fluid backend cannot run it."""
    if name in _RULE_TABLE:
        raise ValueError(f"scheme {name!r} requires a whisker tree")
    if name in _EXTRA:      # packets would run the override, not the row
        raise ValueError(
            f"scheme {name!r} is packet-only: register_scheme() set its "
            f"controller and registers no fluid kernel")
    kernel = _BUILTIN.get(name, (None, None))[1]
    if kernel is None:
        ported = tuple(n for n, row in _BUILTIN.items()
                       if row[1] is not None and n not in _EXTRA)
        raise ValueError(
            f"scheme {name!r} is packet-only (no fluid port); "
            f"fluid-portable: rule-table kinds plus {ported} — see "
            f"docs/PERFORMANCE.md for the fluid coverage list")
    return kernel


def fluid_kernels(kinds: Sequence[str], trees: Dict[str, WhiskerTree],
                  shape: Tuple[int, int]) -> List[FluidKernel]:
    """One kernel per scheme present in ``kinds``, over that scheme's
    lanes; a kind with a tree attached runs the rule-table kernel."""
    lanes: Dict[Type[FluidKernel], np.ndarray] = {}
    for flow, kind in enumerate(kinds):
        cls = RemyCCFluid if kind in trees else fluid_kernel(kind)
        lanes.setdefault(cls, np.zeros(len(kinds), dtype=bool))[flow] = True
    flow_trees = [trees.get(kind) for kind in kinds]
    return [cls(mask, shape, flow_trees) if cls is RemyCCFluid
            else cls(mask, shape) for cls, mask in lanes.items()]
