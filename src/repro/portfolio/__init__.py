"""Anytime solver portfolio: race strategies, share bounds, stop early.

The portfolio runs several configured solver strategies on one instance
concurrently (worker processes) or sequentially time-sliced (inline).
Workers publish improved upper bounds — with witness orderings — and
proven lower bounds onto a bound bus; the scheduler folds them into a
portfolio-wide incumbent, which exact searches prune against, and halts
the whole race as soon as the bounds meet. Races checkpoint themselves
and can be resumed after a kill.

Entry points: :func:`run_portfolio` / :func:`resume_portfolio`, or the
``repro portfolio`` CLI subcommand.
"""

from repro.portfolio.bus import BoundMessage, BusClient, Incumbent, InlineClient
from repro.portfolio.checkpoint import (
    CheckpointMismatchError,
    Checkpointer,
    list_worker_states,
    load_worker_state,
    read_manifest,
    write_manifest,
)
from repro.portfolio.results import PortfolioResult, WorkerResult
from repro.portfolio.scheduler import (
    PortfolioSpec,
    portfolio_report,
    resume_portfolio,
    run_portfolio,
)
from repro.portfolio.strategies import (
    StrategySpec,
    default_portfolio,
    parse_strategies,
)
from repro.portfolio.workers import run_strategy

__all__ = [
    "BoundMessage",
    "BusClient",
    "CheckpointMismatchError",
    "Checkpointer",
    "Incumbent",
    "InlineClient",
    "PortfolioResult",
    "PortfolioSpec",
    "StrategySpec",
    "WorkerResult",
    "default_portfolio",
    "list_worker_states",
    "load_worker_state",
    "parse_strategies",
    "portfolio_report",
    "read_manifest",
    "resume_portfolio",
    "run_portfolio",
    "run_strategy",
    "write_manifest",
]
