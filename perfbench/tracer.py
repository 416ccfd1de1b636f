"""Layer tracer: wraps the boundary functions of each ``repro`` layer.

A *group* is a named set of functions (one per-layer metric family, for
example ``bounds.mmw`` = ``minor_min_width``). Each function is found by
name inside its layer's package, then every binding of that function
object across the loaded ``repro.*`` modules is replaced by a timing
wrapper: module globals (``from x import f`` copies), class attributes
(methods) and module-level dicts (method registries such as the lower
bound table). Because the lookup is by object identity, a function that
moves between modules of its package, or a twin that becomes an alias of
another, is still traced.

Per group the tracer records, in memory until :meth:`Tracer.uninstall`:

* ``calls``  — outermost calls (a call nested inside another call of the
  same group is not counted again);
* ``incl_s`` — inclusive seconds of the outermost calls;
* ``self_s`` — seconds minus the time spent in any *other* wrapped call;
* ``extra``  — a per-group quantity taken from the arguments and result
  of the outermost calls (bytes written, kept children, improving
  offers, ...).

Only boundary functions are wrapped. Per-edge helpers such as
``Graph.degree`` run millions of times per search and would make the
trace measure the wrapper instead of the layer.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Group:
    """One traced function family."""

    name: str
    """``<layer>.<family>``; the layer prefix groups self time."""

    package: str
    functions: tuple[str, ...]
    extra: Callable | None = None
    """``extra(args, kwargs, result) -> (numerator, denominator)``."""


@dataclass
class GroupStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    extra_num: float = 0.0
    extra_den: float = 0.0
    depth: int = 0
    resolved: list[str] = field(default_factory=list)
    hook_failed: bool = False
    """The ``extra`` hook raised; the group's metrics read missing."""


def _size_after_write(args, _kwargs, _result):
    return args[0].path.stat().st_size, 1


def _found_reduction(_args, _kwargs, result):
    if isinstance(result, tuple):  # simplicial_preprocess: (graph, prefix, bound)
        return bool(result[1]), 1
    return (result is not None), 1


def _is_true(_args, _kwargs, result):
    return (result is True), 1


def _kept_children(args, kwargs, result):
    offered = args[2] if len(args) > 2 else kwargs["children"]
    return len(result), len(offered)


#: Every traced group. ``package`` bounds the by-name lookup; the name
#: may be a ``Class.method`` path.
GROUPS: tuple[Group, ...] = (
    Group("search.entry", "repro.search", (
        "branch_and_bound_treewidth", "branch_and_bound_ghw",
        "astar_treewidth", "astar_ghw",
    )),
    Group("bounds.lower", "repro.bounds", (
        "treewidth_lower_bound", "tw_ksc_width", "tw_ksc_width_remaining",
    )),
    Group("bounds.mmw", "repro.bounds", ("minor_min_width",)),
    Group("bounds.mgr", "repro.bounds", ("minor_gamma_r",)),
    Group("bounds.ksc", "repro.setcover", ("k_set_cover_lower_bound",)),
    Group("bounds.upper", "repro.bounds", (
        "upper_bound_ordering", "treewidth_upper_bound", "min_fill_ordering",
        "min_degree_ordering", "min_width_ordering", "max_cardinality_ordering",
    )),
    Group("reductions.find", "repro.reductions", (
        "find_simplicial", "find_reduction_vertex", "simplicial_preprocess",
    ), _found_reduction),
    Group("reductions.pr2", "repro.reductions",
          ("pr2_prune_children",), _kept_children),
    Group("hypergraphs.elim", "repro.hypergraphs",
          ("EliminationGraph.eliminate", "EliminationGraph.restore")),
    Group("setcover.greedy", "repro.setcover",
          ("greedy_set_cover", "greedy_cover_size")),
    Group("setcover.exact", "repro.setcover", (
        "exact_set_cover", "exact_cover_size",
        "ExactSetCoverSolver.cover", "ExactSetCoverSolver.cover_size",
    )),
    Group("decompositions.bags", "repro.decompositions",
          ("elimination_bags",)),
    Group("decompositions.orderings", "repro.decompositions", (
        "ordering_width", "ordering_ghw", "ordering_to_ghd",
        "ordering_to_tree_decomposition", "make_complete", "exact_cover_width",
    )),
    Group("genetic.entry", "repro.genetic",
          ("run_ga", "ga_ghw", "ga_treewidth", "saiga_ghw")),
    Group("localsearch.entry", "repro.localsearch", (
        "simulated_annealing", "sa_ghw", "sa_treewidth",
        "tabu_search", "tabu_ghw", "tabu_treewidth",
    )),
    Group("verify.certify", "repro.verify",
          ("certify_tw_witness", "certify_ghw_witness")),
    Group("portfolio.race", "repro.portfolio",
          ("run_portfolio", "run_strategy")),
    Group("portfolio.resume", "repro.portfolio",
          ("resume_portfolio",)),
    Group("portfolio.load", "repro.portfolio", (
        "read_manifest", "list_worker_states", "load_worker_state",
        "revive_vertices",
    )),
    Group("portfolio.ckpt", "repro.portfolio",
          ("Checkpointer._write",), _size_after_write),
    Group("portfolio.bus", "repro.portfolio",
          ("Incumbent.offer_upper", "Incumbent.offer_lower"), _is_true),
    Group("obs.report", "repro.portfolio", ("capture_worker_report",)),
)


def _repro_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _lookup(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _resolve(group: Group) -> dict[int, tuple[str, Callable]]:
    """Distinct function objects named by ``group`` inside its package."""
    found: dict[int, tuple[str, Callable]] = {}
    for module in _repro_modules():
        if not (
            module.__name__ == group.package
            or module.__name__.startswith(group.package + ".")
        ):
            continue
        for dotted in group.functions:
            obj = _lookup(module, dotted)
            if callable(obj) and getattr(obj, "__module__", "").startswith("repro"):
                found.setdefault(id(obj), (dotted, obj))
    return found


class Tracer:
    """Install timing wrappers on :data:`GROUPS`; collect per-group stats."""

    def __init__(self) -> None:
        self.stats = {group.name: GroupStats() for group in GROUPS}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def install(self) -> None:
        targets: dict[int, tuple[Callable, Callable]] = {}
        for group in GROUPS:
            stats = self.stats[group.name]
            for dotted, fn in _resolve(group).values():
                if id(fn) not in targets:
                    targets[id(fn)] = (fn, self._wrap(fn, group, stats))
                    stats.resolved.append(dotted)

        def wrapper_for(value):
            target = targets.get(id(value))
            return target[1] if target is not None and target[0] is value else None

        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if wrapper_for(value) is not None:
                    self._set(module, key, value, wrapper_for(value), attr=True)
                elif isinstance(value, type) and value.__module__.startswith("repro"):
                    for name, member in list(vars(value).items()):
                        if wrapper_for(member) is not None:
                            self._set(value, name, member, wrapper_for(member), attr=True)
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        if wrapper_for(item) is not None:
                            self._set(value, item_key, item, wrapper_for(item), attr=False)

    def uninstall(self) -> None:
        for container, key, original, attr in reversed(self._undo):
            if attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()

    def snapshot(self) -> dict[str, tuple]:
        return {
            name: (s.calls, s.incl_s, s.self_s, s.extra_num, s.extra_den)
            for name, s in self.stats.items()
        }

    def _set(self, container, key, original, wrapper, attr: bool) -> None:
        if attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._undo.append((container, key, original, attr))

    def _wrap(self, fn: Callable, group: Group, stats: GroupStats) -> Callable:
        stack = self._stack
        extra = group.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.depth += 1
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                children = stack.pop()
                stats.depth -= 1
                stats.self_s += elapsed - children
                outermost = stats.depth == 0
                if outermost:
                    stats.calls += 1
                    stats.incl_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if outermost and extra is not None and not stats.hook_failed:
                try:
                    num, den = extra(args, kwargs, result)
                except (AttributeError, LookupError, OSError, TypeError):
                    stats.hook_failed = True  # never break the traced program
                else:
                    stats.extra_num += num
                    stats.extra_den += den
            return result

        return traced
