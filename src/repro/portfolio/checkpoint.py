"""Checkpoint persistence for portfolio races.

Layout of a checkpoint directory::

    manifest.json        race-level metadata: measure, strategy specs,
                         the instance's content fingerprint
    worker-<name>.json   one resume snapshot per worker, atomically
                         replaced on every (throttled) write

Snapshots are whatever dict the solver offered through
``control.checkpoint`` — always carrying ``best_fitness`` /
``best_individual`` (so a resumed race can seed its incumbent before any
worker restarts) plus family-specific state: GA population and
fitnesses, SA temperature and current walk, tabu list, search node
counts. RNG state round-trips through JSON as a list and is decoded back
to the exact ``random.Random`` state tuple on load.

Writes are atomic (tmp file + ``os.replace``) so a race killed mid-write
never leaves a truncated snapshot behind.

Snapshots carry orderings and bounds of one instance only: resuming them
on any other instance would report that instance's widths. The manifest
therefore records :func:`instance_fingerprint`, and :func:`check_instance`
refuses a directory whose fingerprint does not match; :func:`check_states`
refuses a worker snapshot whose best ordering is not a permutation of the
instance's vertices (a worker file copied in from another race).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import permutes

MANIFEST = "manifest.json"
_WORKER_PREFIX = "worker-"


class CheckpointMismatchError(ValueError):
    """A checkpoint directory belongs to a different instance."""


def instance_fingerprint(instance) -> str:
    """Content hash of a graph or hypergraph: its sorted vertex and edge
    reprs. Equal for equal content however the instance was built, and
    stable across processes and hash seeds.

    The hash is zlib's CRC-32 and Adler-32 side by side: it guards
    against mix-ups, not tampering, and ``hashlib`` would load OpenSSL
    (about 3.4 MB resident) into every process that imports the library.
    """
    if isinstance(instance, Hypergraph):
        edges = [
            repr((name, sorted(map(repr, edge))))
            for name, edge in instance.edges().items()
        ]
    else:
        edges = [repr(sorted(map(repr, edge))) for edge in instance.edges()]
    content = [sorted(map(repr, instance.vertices())), sorted(edges)]
    data = json.dumps(content).encode()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def check_instance(directory: str | Path, instance) -> None:
    """Raise :class:`CheckpointMismatchError` unless ``directory``'s
    manifest was written for ``instance``."""
    manifest = read_manifest(directory) or {}
    recorded = manifest.get("fingerprint")
    if recorded != instance_fingerprint(instance):
        reason = (
            "records no instance fingerprint"
            if recorded is None
            else f"was written for another instance ({manifest.get('instance')!r})"
        )
        raise CheckpointMismatchError(
            f"checkpoint {str(directory)!r} {reason}; refusing to resume it"
        )


def check_states(directory: str | Path, states: dict[str, dict], instance) -> None:
    """Raise :class:`CheckpointMismatchError` unless every worker
    snapshot's ``best_individual`` permutes ``instance``'s vertices."""
    vertices = set(instance.vertices())
    for worker, state in states.items():
        if not permutes(state.get("best_individual"), vertices):
            path = Path(directory) / f"{_WORKER_PREFIX}{worker}.json"
            raise CheckpointMismatchError(
                f"snapshot {str(path)!r} does not order this instance's "
                "vertices; refusing to resume it"
            )


def encode_rng_state(state) -> list:
    """``random.Random.getstate()`` -> JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data) -> tuple:
    """JSON round-tripped state -> the tuple ``setstate`` requires."""
    version, internal, gauss_next = data
    return (version, tuple(int(word) for word in internal), gauss_next)


def _encode_state(state: dict) -> dict:
    encoded = dict(state)
    if encoded.get("rng_state") is not None:
        encoded["rng_state"] = encode_rng_state(encoded["rng_state"])
    return encoded


def _decode_state(state: dict) -> dict:
    decoded = dict(state)
    if decoded.get("rng_state") is not None:
        decoded["rng_state"] = decode_rng_state(decoded["rng_state"])
    return decoded


def _atomic_write(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


class Checkpointer:
    """Throttled, atomic snapshot writer for one worker.

    Solvers offer a snapshot every loop iteration; writing each one would
    dominate the run, so offers inside ``interval_s`` of the last write
    are only *kept* (in memory) and :meth:`flush` persists the freshest
    one — the final flush on worker shutdown is what a resumed race
    reads.
    """

    def __init__(
        self,
        directory: str | Path,
        worker: str,
        interval_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.directory = Path(directory)
        self.worker = worker
        self.interval_s = interval_s
        self.clock = clock
        self.path = self.directory / f"{_WORKER_PREFIX}{worker}.json"
        self.writes = 0
        self._pending: dict | None = None
        self._last_write: float | None = None

    def offer(self, state: dict) -> None:
        self._pending = state
        now = self.clock()
        if (
            self._last_write is not None
            and now - self._last_write < self.interval_s
        ):
            return
        self._write(state)
        self._last_write = now

    def flush(self) -> None:
        """Persist the freshest offered snapshot regardless of throttle."""
        if self._pending is not None:
            self._write(self._pending)
            self._last_write = self.clock()

    def _write(self, state: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path, _encode_state(state))
        self.writes += 1
        self._pending = None


def load_worker_state(directory: str | Path, worker: str) -> dict | None:
    """The worker's last snapshot (rng state decoded), or ``None``."""
    path = Path(directory) / f"{_WORKER_PREFIX}{worker}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return _decode_state(json.load(handle))


def list_worker_states(directory: str | Path) -> dict[str, dict]:
    """All worker snapshots in ``directory``, keyed by worker name."""
    states: dict[str, dict] = {}
    base = Path(directory)
    if not base.is_dir():
        return states
    for path in sorted(base.glob(f"{_WORKER_PREFIX}*.json")):
        worker = path.stem[len(_WORKER_PREFIX):]
        with open(path, encoding="utf-8") as handle:
            states[worker] = _decode_state(json.load(handle))
    return states


def revive_vertices(state: dict, vertices) -> dict:
    """Map JSON round-tripped vertex leaves back to real instance vertices.

    Tuple vertices (grid instances) come back from JSON as lists and
    would be unhashable inside a resumed solver. Every leaf whose JSON
    form matches a vertex of the instance is replaced by that vertex;
    everything else (fitnesses, parameters, tabu expiries) is untouched.
    ``rng_state`` is skipped wholesale — it is decoded separately and
    never contains vertices.
    """
    canon: dict[str, object] = {}
    for vertex in vertices:
        try:
            canon[json.dumps(vertex)] = vertex
        except TypeError:  # pragma: no cover - exotic vertex type
            pass
    return {
        key: value if key == "rng_state" else _revive(value, canon)
        for key, value in state.items()
    }


def _revive(value, canon: dict):
    if isinstance(value, dict):
        return {key: _revive(item, canon) for key, item in value.items()}
    try:
        key = json.dumps(value)
    except TypeError:
        return value
    if key in canon:
        return canon[key]
    if isinstance(value, list):
        return [_revive(item, canon) for item in value]
    return value


def write_manifest(directory: str | Path, manifest: dict) -> None:
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    _atomic_write(base / MANIFEST, manifest)


def read_manifest(directory: str | Path) -> dict | None:
    path = Path(directory) / MANIFEST
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
