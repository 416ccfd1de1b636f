"""Exact width algorithms: A*-tw, BB-tw, BB-ghw, A*-ghw."""

from repro.search.common import SearchBudget, SearchResult
from repro.search.ordering import (
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)

__all__ = [
    "SearchBudget",
    "SearchResult",
    "astar_ghw",
    "astar_treewidth",
    "branch_and_bound_ghw",
    "branch_and_bound_treewidth",
]
