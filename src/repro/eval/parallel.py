"""Parallel cached evaluation runner.

Every paper-shape experiment (Figures 7/8, the cross-workload study,
the resilience campaigns) is a grid of independent *cells*: one
(program, topology, config, fault-scenario) simulation each.  This
module backs cells with a content-addressed on-disk result cache and
fans the cache misses out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, so a re-run of an
unchanged grid is nearly free (the coordinator answers every cell
itself and starts no worker) and a changed grid only recomputes the
cells it invalidated.

Cache keying
------------
A cell's key is the SHA-256 of the canonical JSON of everything that
determines its result:

* the program's full event streams (compute cycles included — jitter
  changes timing and therefore results),
* the topology description plus a routing fingerprint (the concrete
  per-pair switch paths and link ids for source-routed networks, or
  the adaptive policy name for the torus),
* the :class:`~repro.simulator.config.SimConfig`,
* per-link delays and the fault scenario, when present,
* a code version tag (:func:`code_version_tag`) — bumping the package
  version or the cache schema invalidates every entry.

Each member is encoded on its own and spliced into the key by
:func:`cell_key`; inside a :func:`key_fragments` block the members a
batch shares (programs, topologies, patterns, configs) are encoded once
per batch rather than once per cell.

Cache layout (under ``.repro-cache/`` by default)::

    results/<sha256>.json   one simulation payload per cell
    setups/<sha256>.json    one setup's design and floorplan per
                            (name, n, seed); see setup_to_dict

Each entry is the hex SHA-256 of the payload's canonical JSON, a
newline, then that JSON.  An entry whose digest is missing or does not
match its JSON reads as a miss and is dropped, like a torn one, so a
flipped value is recomputed rather than served.

Determinism
-----------
Serial (``jobs=None``), parallel (``jobs=N``) and cache-hit execution
all produce byte-identical payloads: every path returns the JSON-safe
payload dictionary (fresh results round-trip through
:func:`~repro.eval.serialize.result_to_dict` exactly), and the
determinism harness in ``tests/eval/test_determinism.py`` pins this
with golden fixtures.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.errors import ReproError
from repro.eval.serialize import (
    canonical_json,
    config_to_dict,
    result_to_dict,
    setup_from_dict,
    setup_to_dict,
)
from repro.model.message import Communication
from repro.model.pattern import CommunicationPattern
from repro.obs import DISABLED, Observability
from repro.faults.repair import all_pairs, repair_routes
from repro.faults.spec import FaultScenario, LinkFault, SwitchFault
from repro.faults.state import FaultState
from repro.simulator.config import SimConfig
from repro.simulator.openloop import LoadPoint
from repro.simulator.routing import BoundSourceRouted
from repro.simulator.simulation import simulate
from repro.simulator.stats import SimulationResult
from repro.topology.builders import Topology
from repro.workloads.events import Program, SendEvent

if TYPE_CHECKING:  # pragma: no cover - runtime import would cycle via
    # repro.synthesis.portfolio, which imports this module at module scope.
    from repro.eval.runner import BenchmarkSetup
    from repro.synthesis.annealing import AnnealSchedule
    from repro.synthesis.constraints import DesignConstraints

# Bump to invalidate every cached entry after a change that alters
# simulation or synthesis results without changing any input.
# Schema 2: link utilization normalized over simulated cycles
# (including the post-completion drain) instead of execution cycles.
# Schema 3: open-loop payloads carry p50/p95/p99 latency percentiles.
CACHE_SCHEMA = 3

DEFAULT_CACHE_DIR = ".repro-cache"


def code_version_tag() -> str:
    """Version component of every cache key."""
    from repro import __version__

    return f"repro-{__version__}/schema-{CACHE_SCHEMA}"


def resolve_jobs(jobs: Optional[int]) -> Optional[int]:
    """Normalize a ``--jobs`` value: None/1 -> serial, 0/negative -> all
    cores, N -> N workers."""
    if jobs is None or jobs == 1:
        return None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Content-addressed cache of cell payloads and benchmark setups."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def setups_dir(self) -> Path:
        return self.root / "setups"

    @staticmethod
    def _drop(path: Path) -> None:
        """Delete an unusable entry; one already gone is fine."""
        try:
            path.unlink()
        except OSError:
            pass

    def _atomic_write(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        body = canonical_json(payload).encode("utf-8")
        tmp.write_bytes(hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body)
        os.replace(tmp, path)

    @staticmethod
    def _decode(data: bytes) -> Optional[dict]:
        """The JSON object of an entry's bytes, or ``None`` when the
        digest line is missing or wrong, or the JSON is not an object."""
        digest, newline, body = data.partition(b"\n")
        if not newline or digest != hashlib.sha256(body).hexdigest().encode("ascii"):
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    # -- result payloads (JSON) ---------------------------------------

    @staticmethod
    def _read_object(path: Path) -> Optional[dict]:
        """The JSON object stored at ``path``, or ``None`` on a miss.

        A torn, unparsable or non-object entry (``[]``, ``"x"``,
        ``null``), or one whose digest is missing or does not match its
        JSON, is corrupt: it is dropped and reads as a miss, so no
        caller ever receives a payload that is not the dict written.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            data = b""
        payload = ResultCache._decode(data)
        if payload is None:
            ResultCache._drop(path)
        return payload

    def get_result(self, key: str) -> Optional[dict]:
        return self._read_object(self.results_dir / f"{key}.json")

    def drop_result(self, key: str) -> None:
        """Delete a result entry, e.g. a JSON object of the wrong shape."""
        self._drop(self.results_dir / f"{key}.json")

    def put_result(self, key: str, payload: dict) -> None:
        self._atomic_write(self.results_dir / f"{key}.json", payload)

    # -- benchmark setups (JSON, see serialize.setup_to_dict) --------

    def get_setup(self, key: str) -> Optional[dict]:
        """A setup's cached payload, or ``None``; corrupt entries read
        as misses, as for :meth:`get_result`."""
        return self._read_object(self.setups_dir / f"{key}.json")

    def drop_setup(self, key: str) -> None:
        """Delete a setup entry, e.g. one that does not decode."""
        self._drop(self.setups_dir / f"{key}.json")

    def put_setup(self, key: str, payload: dict) -> None:
        self._atomic_write(self.setups_dir / f"{key}.json", payload)

    # -- maintenance ---------------------------------------------------

    @staticmethod
    def _files(directory: Path) -> List[Path]:
        if not directory.is_dir():
            return []
        return [p for p in directory.iterdir() if p.is_file()]

    def clear(self) -> int:
        """Remove every cached entry; returns how many were removed."""
        removed = 0
        for path in self._files(self.results_dir) + self._files(self.setups_dir):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @staticmethod
    def _classify_result(payload: dict) -> str:
        """Which cell family produced a cached result payload.

        :class:`SynthesisCell` payloads carry either a serialized design
        or an ``infeasible`` status; every other shape (simulation
        results, resilience outcomes, open-loop points) is an eval
        cell.  Classification inspects content — the payload bytes are
        pinned by the determinism goldens, so no marker field can be
        added without invalidating them.
        """
        if not isinstance(payload, dict):
            return "eval"
        if "design" in payload or payload.get("status") == "infeasible":
            return "synthesis"
        return "eval"

    def stats(self) -> dict:
        """Entry counts and total size, for ``repro cache info``.

        Result payloads are broken out by cell family: ``results`` /
        ``bytes`` stay the historical totals, while ``eval_results``,
        ``synthesis_results`` (with ``synthesis_ok`` /
        ``synthesis_infeasible`` and ``synthesis_bytes``) enumerate what
        the totals are made of.
        """
        counts = {
            "eval_results": 0,
            "eval_bytes": 0,
            "synthesis_results": 0,
            "synthesis_ok": 0,
            "synthesis_infeasible": 0,
            "synthesis_bytes": 0,
        }
        results = self._files(self.results_dir)
        setups = self._files(self.setups_dir)
        for path in results:
            size = path.stat().st_size
            try:
                payload = self._decode(path.read_bytes())
            except OSError:
                payload = None
            family = self._classify_result(payload) if payload is not None else "eval"
            if family == "synthesis":
                counts["synthesis_results"] += 1
                counts["synthesis_bytes"] += size
                if payload is not None and payload.get("status") == "infeasible":
                    counts["synthesis_infeasible"] += 1
                else:
                    counts["synthesis_ok"] += 1
            else:
                counts["eval_results"] += 1
                counts["eval_bytes"] += size
        return {
            "root": str(self.root),
            "results": len(results),
            "setups": len(setups),
            "bytes": sum(p.stat().st_size for p in results + setups),
            **counts,
        }


# ---------------------------------------------------------------------------
# Cache-key fragments
# ---------------------------------------------------------------------------

# A key is composed of fragments: the canonical JSON text of each of its
# members.  Inside a key_fragments() block each shared fragment is built
# once: the memo maps a builder and the id() of each of its arguments to
# (arguments, fragment), and holding the arguments keeps every id in a
# memo key unique while the memo lives.
_Memo = Dict[tuple, Tuple[tuple, Any]]
_FRAGMENTS: ContextVar[Optional[_Memo]] = ContextVar("key_fragments", default=None)

_Builder = TypeVar("_Builder", bound=Callable[..., Any])


@contextmanager
def key_fragments() -> Iterator[None]:
    """Build each shared key fragment once for every ``key()`` in the block.

    The cells of a batch share programs, topologies, patterns and
    configs; inside the block each is fingerprinted once, however many
    cells carry it.  Keys are byte-identical either way, and outside any
    block ``key()`` builds every fragment itself.  A nested block reuses
    the outer memo.  The memo ends with the outermost block and is never
    stored on an object: topologies and networks are mutable, so a
    fragment kept past its batch could give a changed object a stale key.
    """
    if _FRAGMENTS.get() is not None:
        yield
        return
    token = _FRAGMENTS.set({})
    try:
        yield
    finally:
        _FRAGMENTS.reset(token)


def _per_batch(build: _Builder) -> _Builder:
    """Memoize ``build`` on the identity of its (positional) arguments
    inside a :func:`key_fragments` block."""

    @functools.wraps(build)
    def fragment(*args: Any) -> Any:
        memo = _FRAGMENTS.get()
        if memo is None:
            return build(*args)
        key = (build, *map(id, args))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (args, build(*args))
        return hit[1]

    return cast(_Builder, fragment)


@_per_batch
def _program_fingerprint(program: Program) -> str:
    """Full event-stream fingerprint (the trace plus compute timing)."""
    streams = []
    for stream in program.events:
        events = []
        for event in stream:
            if isinstance(event, SendEvent):
                events.append(["s", event.dest, event.size_bytes, event.tag])
            elif hasattr(event, "source"):
                events.append(["r", event.source, event.tag])
            else:
                events.append(["c", event.cycles])
        streams.append(events)
    return canonical_json(
        {
            "name": program.name,
            "num_processes": program.num_processes,
            "events": streams,
        }
    )


@_per_batch
def _program_pairs(program: Program) -> Tuple[Communication, ...]:
    return program.communication_pairs()


@_per_batch
def _topology_fingerprint(
    topology: Topology,
    program: Optional[Program],
    link_delays: Optional[Dict[int, int]],
    adaptive: bool,
) -> str:
    """The topology's graph, link delays and routing.

    An adaptive policy is fingerprinted by name; a deterministic one by
    the concrete switch path and link ids of every pair it routes: the
    program's pairs for a trace replay, or every pair when ``program``
    is ``None`` (open-loop traffic).
    """
    if adaptive:
        routing: dict = {"policy": "adaptive-minimal"}
    else:
        pairs = (
            _program_pairs(program)
            if program is not None
            else all_pairs(topology.network.num_processors)
        )
        routes = {}
        for comm in pairs:
            r = topology.routing.route(comm)
            routes[f"{comm.source}->{comm.dest}"] = [list(r.switch_path), list(r.link_ids)]
        routing = {"policy": "source", "routes": routes}
    return canonical_json(
        {
            "name": topology.name,
            "kind": topology.kind,
            "graph": topology.network.describe(),
            "routing": routing,
            "link_delays": (
                sorted(link_delays.items()) if link_delays is not None else None
            ),
        }
    )


@_per_batch
def _pattern_fingerprint(pattern: CommunicationPattern) -> str:
    """Full communication-pattern fingerprint (timing windows included —
    they shape the contention cliques and therefore the design)."""
    return canonical_json(
        {
            "name": pattern.name,
            "num_processes": pattern.num_processes,
            "messages": [
                [m.source, m.dest, m.t_start, m.t_finish, m.size_bytes, m.tag]
                for m in pattern.messages
            ],
        }
    )


@_per_batch
def _config_fingerprint(config: SimConfig) -> str:
    return canonical_json(config_to_dict(config))


def _scenario_fingerprint(scenario: FaultScenario) -> dict:
    faults = []
    for f in scenario.faults:
        end = "perm" if f.end is None else str(f.end)
        if isinstance(f, LinkFault):
            faults.append(f"link:{f.link_id}:{f.start}:{end}")
        elif isinstance(f, SwitchFault):
            faults.append(f"switch:{f.switch_id}:{f.start}:{end}")
        else:  # pragma: no cover - future fault classes
            raise ReproError(f"unknown fault spec {f!r}")
    return {"name": scenario.name, "faults": sorted(faults)}


def _members(kind: str, **values: object) -> Dict[str, str]:
    """Key members of plain JSON values, plus the version tag and the
    cell kind that every key carries."""
    values.update(version=code_version_tag(), kind=kind)
    return {name: canonical_json(value) for name, value in values.items()}


def cell_key(members: Mapping[str, str]) -> str:
    """SHA-256 content key of a cell, from each member's canonical JSON.

    Hashes ``{"name":text,...}`` in sorted name order: the bytes
    :func:`canonical_json` gives the whole payload, so a fragment built
    once per batch splices into every key byte-identically.
    """
    body = ",".join(f"{canonical_json(name)}:{members[name]}" for name in sorted(members))
    return hashlib.sha256(("{" + body + "}").encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

# Every cell class names, in ``payload_fields``, the top-level fields of
# the payloads it computes, keyed by the payload's ``status`` (``None``
# for a family without one).  A cached JSON object that does not carry
# them was not written by that cell: run_cells drops it and recomputes.
PayloadFields = Mapping[Optional[str], FrozenSet[str]]

_RESULT_FIELDS = frozenset(f.name for f in fields(SimulationResult))
_LOADPOINT_FIELDS = frozenset(f.name for f in fields(LoadPoint))


@dataclass(frozen=True)
class PerformanceCell:
    """One program replayed on one topology with the paper's default
    routing policy for that topology class."""

    label: str
    program: Program
    topology: Topology
    config: SimConfig
    link_delays: Optional[Dict[int, int]] = None

    payload_fields: ClassVar[PayloadFields] = {None: _RESULT_FIELDS}

    def key(self) -> str:
        return cell_key(
            {
                **_members("performance"),
                "program": _program_fingerprint(self.program),
                "topology": _topology_fingerprint(
                    self.topology,
                    self.program,
                    self.link_delays,
                    self.topology.kind == "torus",
                ),
                "config": _config_fingerprint(self.config),
            }
        )

    def compute(self, obs: Optional[Observability] = None) -> dict:
        result = simulate(
            self.program,
            self.topology,
            self.config,
            link_delays=self.link_delays,
            obs=obs,
        )
        return result_to_dict(result)


@dataclass(frozen=True)
class ResilienceCell:
    """One fault scenario (or the fault-free baseline, ``scenario=None``)
    of a resilience campaign.

    All resilience runs use deterministic source routing so the repaired
    tables compare like-for-like with the baseline (see
    :mod:`repro.eval.resilience`).
    """

    label: str
    program: Program
    topology: Topology
    config: SimConfig
    link_delays: Optional[Dict[int, int]] = None
    scenario: Optional[FaultScenario] = None

    payload_fields: ClassVar[PayloadFields] = {
        "baseline": frozenset({"status", "result"}),
        "disconnected": frozenset(
            {"status", "rerouted_pairs", "disconnected_pairs", "stranded_messages"}
        ),
        "ok": frozenset({"status", "rerouted_pairs", "result"}),
    }

    def key(self) -> str:
        return cell_key(
            {
                **_members(
                    "resilience",
                    scenario=(
                        _scenario_fingerprint(self.scenario) if self.scenario else None
                    ),
                ),
                "program": _program_fingerprint(self.program),
                # adaptive=False: resilience runs source-route the torus too.
                "topology": _topology_fingerprint(
                    self.topology, self.program, self.link_delays, False
                ),
                "config": _config_fingerprint(self.config),
            }
        )

    def compute(self, obs: Optional[Observability] = None) -> dict:
        pairs = self.program.communication_pairs()
        if self.scenario is None:
            result = simulate(
                self.program,
                self.topology,
                self.config,
                link_delays=self.link_delays,
                routing=BoundSourceRouted(self.topology.routing, self.topology.network),
                obs=obs,
            )
            return {"status": "baseline", "result": result_to_dict(result)}
        repair = repair_routes(self.topology, self.scenario, pairs=pairs)
        if repair.disconnected:
            lost = set(repair.disconnected)
            stranded = sum(
                1
                for proc, stream in enumerate(self.program.events)
                for event in stream
                if isinstance(event, SendEvent)
                and any(c.source == proc and c.dest == event.dest for c in lost)
            )
            return {
                "status": "disconnected",
                "rerouted_pairs": len(repair.rerouted),
                "disconnected_pairs": len(repair.disconnected),
                "stranded_messages": stranded,
            }
        result = simulate(
            self.program,
            self.topology,
            self.config,
            link_delays=self.link_delays,
            routing=BoundSourceRouted(repair.routing, self.topology.network),
            fault_state=FaultState(self.topology.network, self.scenario),
            obs=obs,
        )
        return {
            "status": "ok",
            "rerouted_pairs": len(repair.rerouted),
            "result": result_to_dict(result),
        }


@dataclass(frozen=True)
class OpenLoopCell:
    """One open-loop measurement: a (topology, pattern, rate) point.

    The pattern rides as its canonical registry *spec string* (e.g.
    ``"tornado"``, ``"hotspot:3:0.8"``) rather than a callable, so the
    cell pickles across the process pool and the cache key is stable;
    workers resolve it through :func:`repro.sweeps.patterns.resolve_pattern`
    against the cell's own topology (which also covers the
    routing-aware ``adversarial`` pattern — the permutation is a
    deterministic function of the fingerprinted topology).
    """

    label: str
    topology: Topology
    pattern: str
    injection_rate: float
    config: SimConfig
    packet_bytes: int = 32
    warmup_cycles: int = 500
    measure_cycles: int = 2000
    drain_cycles: int = 2000
    link_delays: Optional[Dict[int, int]] = None
    seed: int = 0

    payload_fields: ClassVar[PayloadFields] = {None: _LOADPOINT_FIELDS}

    def key(self) -> str:
        return cell_key(
            {
                **_members(
                    "openloop",
                    pattern=self.pattern,
                    injection_rate=self.injection_rate,
                    packet_bytes=self.packet_bytes,
                    warmup_cycles=self.warmup_cycles,
                    measure_cycles=self.measure_cycles,
                    drain_cycles=self.drain_cycles,
                    seed=self.seed,
                ),
                "topology": _topology_fingerprint(
                    self.topology, None, self.link_delays, self.topology.kind == "torus"
                ),
                "config": _config_fingerprint(self.config),
            }
        )

    def compute(self, obs: Optional[Observability] = None) -> dict:
        from repro.eval.serialize import loadpoint_to_dict
        from repro.simulator.openloop import run_open_loop
        from repro.sweeps.patterns import resolve_pattern

        point = run_open_loop(
            self.topology,
            self.injection_rate,
            pattern=resolve_pattern(self.pattern, topology=self.topology),
            packet_bytes=self.packet_bytes,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain_cycles=self.drain_cycles,
            config=self.config,
            link_delays=self.link_delays,
            seed=self.seed,
            obs=obs,
        )
        return loadpoint_to_dict(point)


@dataclass(frozen=True)
class SynthesisCell:
    """One seeded synthesis run of a portfolio (``repro.synthesis.portfolio``).

    The cache key covers everything that determines the generated
    design: the pattern's full fingerprint (message timing windows
    shape the contention cliques), the design constraints, the seed,
    the optional :class:`~repro.synthesis.annealing.AnnealSchedule`
    driving temperature moves, and the code version tag.  Each cell is
    one synthesis attempt (``restarts=1``): the portfolio's seeds
    replace serial restarts.  The payload is either
    ``{"status": "ok", "design": ...}`` with the design losslessly
    serialized through :func:`repro.eval.serialize.design_to_dict`, or
    ``{"status": "infeasible", "error": ...}`` — failures are cached
    like successes, so a repeated portfolio never re-pays for a seed
    whose constraints proved unsatisfiable (at 64+ nodes a failed run
    costs as much as a successful one).

    Synthesis imports happen inside :meth:`compute`:
    ``repro.synthesis.portfolio`` imports this module at module scope,
    so the reverse import must be deferred.
    """

    label: str
    pattern: CommunicationPattern
    seed: int
    constraints: Optional["DesignConstraints"] = None
    schedule: Optional["AnnealSchedule"] = None

    payload_fields: ClassVar[PayloadFields] = {
        "ok": frozenset({"status", "design"}),
        "infeasible": frozenset({"status", "error"}),
    }

    def key(self) -> str:
        return cell_key(
            {
                **_members(
                    "synthesis",
                    constraints=(
                        asdict(self.constraints) if self.constraints is not None else None
                    ),
                    seed=self.seed,
                    schedule=(
                        asdict(self.schedule) if self.schedule is not None else None
                    ),
                ),
                "pattern": _pattern_fingerprint(self.pattern),
            }
        )

    def compute(self, obs: Optional[Observability] = None) -> dict:
        from repro.errors import SynthesisError
        from repro.eval.serialize import design_to_dict
        from repro.synthesis.generator import generate_network

        try:
            design = generate_network(
                self.pattern,
                constraints=self.constraints,
                seed=self.seed,
                restarts=1,
                anneal_schedule=self.schedule,
                obs=obs,
            )
        except SynthesisError as exc:
            return {"status": "infeasible", "error": str(exc)}
        return {"status": "ok", "design": design_to_dict(design)}


Cell = Union[PerformanceCell, ResilienceCell, OpenLoopCell, SynthesisCell]


def payload_fits(cell: Cell, payload: dict) -> bool:
    """Whether ``payload`` carries every top-level field ``cell``
    writes for the payload's status."""
    required = cell.payload_fields.get(payload.get("status"))
    return required is not None and required <= payload.keys()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: its payload plus cache/timing metadata."""

    label: str
    key: str
    cache_hit: bool
    seconds: float
    payload: dict


ProgressCallback = Callable[[CellOutcome, int, int], None]


def print_progress(outcome: CellOutcome, index: int, total: int) -> None:
    """Default per-cell progress line (stderr, survives stdout capture)."""
    status = "cached" if outcome.cache_hit else f"{outcome.seconds:.2f}s"
    print(f"[{index}/{total}] {outcome.label}: {status}", file=sys.stderr, flush=True)


@dataclass(frozen=True)
class _Miss:
    """A cell the cache could not answer, keyed once by the coordinator."""

    index: int
    cell: Cell
    key: str
    lookup_s: float


def _execute_cell(
    miss: _Miss, cache_root: Optional[str], obs: Optional[Observability] = None
) -> CellOutcome:
    """Compute one cache miss and write it through to the cache.

    Runs in a pool worker or, for serial runs and a lone miss, in
    process.  The coordinator already keyed the cell and found no entry,
    so this only computes and writes; the outcome's ``seconds`` includes
    that lookup, so hits and misses time the same span of work.  ``obs``
    is only threaded on in-process execution — an observability bundle
    cannot cross the process-pool boundary.
    """
    started = time.perf_counter()
    payload = miss.cell.compute(obs=obs)
    if cache_root is not None:
        ResultCache(cache_root).put_result(miss.key, payload)
    return CellOutcome(
        label=miss.cell.label,
        key=miss.key,
        cache_hit=False,
        seconds=miss.lookup_s + time.perf_counter() - started,
        payload=payload,
    )


def _observe_outcome(obs: Observability, outcome: CellOutcome, cached: bool) -> None:
    """Coordinator-side accounting for one executed cell.

    Workers cannot carry an observability bundle across the process
    boundary, so the coordinator re-emits each cell as a pre-timed span
    from the :class:`CellOutcome` timing and counts cache traffic here.
    Without a cache (``cached`` false) there is no traffic to count:
    ``eval.cache.lookups`` still exists, at 0, because every profile
    must report it.
    """
    m = obs.metrics
    lookups = m.counter("eval.cache.lookups")
    if cached:
        lookups.inc()
        m.counter("eval.cache.hits" if outcome.cache_hit else "eval.cache.misses").inc()
    m.record_wall(f"eval.cell.{outcome.label}", outcome.seconds)
    obs.tracer.complete(
        "eval.cell",
        outcome.seconds,
        label=outcome.label,
        cache_hit=outcome.cache_hit,
    )


def run_cells(
    cells: Sequence[Cell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
) -> List[CellOutcome]:
    """Execute every cell: cache hits in process, misses over a pool.

    The coordinator keys each cell once and answers hits from the cache
    itself, so a fully warm batch never starts a worker.  Misses run in
    process when ``jobs=None`` (or 1) — the reference path the
    determinism harness compares against — or when there is only one;
    otherwise they fan out over ``min(jobs, misses)`` workers
    (``jobs<=0`` means every core).  Returns outcomes in cell order
    regardless of completion order, so callers build rows
    deterministically; ``progress`` fires once per cell as it resolves,
    hits first.  Cells are keyed inside one :func:`key_fragments` block,
    so cells that share a program, topology, pattern or config
    fingerprint it once.  A cached payload without the fields the
    cell's ``payload_fields`` names is dropped and recomputed as a miss.

    ``obs`` records cache hit/miss counters and one span per cell
    (coordinator side only — payloads are never touched, so
    observability cannot perturb the determinism guarantee).
    """
    obs = obs if obs is not None else DISABLED
    cache_root = str(cache.root) if cache is not None else None
    workers = resolve_jobs(jobs)
    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    done = 0

    def finish(index: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if obs.enabled:
            _observe_outcome(obs, outcome, cache is not None)
        if progress is not None:
            progress(outcome, done, total)

    misses: List[_Miss] = []
    with key_fragments():
        for i, cell in enumerate(cells):
            started = time.perf_counter()
            key = cell.key()
            cached = cache.get_result(key) if cache is not None else None
            if cached is not None and not payload_fits(cell, cached):
                # A JSON object of another shape (another family's payload,
                # a stale schema): drop it and recompute, as for a torn entry.
                cache.drop_result(key)
                cached = None
            seconds = time.perf_counter() - started
            if cached is None:
                misses.append(_Miss(i, cell, key, seconds))
            else:
                finish(i, CellOutcome(cell.label, key, True, seconds, cached))
    if workers is None or len(misses) <= 1:
        for miss in misses:
            finish(
                miss.index,
                _execute_cell(miss, cache_root, obs=obs if obs.enabled else None),
            )
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(misses))) as pool:
            futures = {
                pool.submit(_execute_cell, miss, cache_root): miss.index
                for miss in misses
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    finish(futures[fut], fut.result())
    return [o for o in outcomes if o is not None]


# ---------------------------------------------------------------------------
# Parallel benchmark-setup preparation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetupTask:
    """One (benchmark, size, seed) setup of the evaluation grid."""

    benchmark: str
    n: int
    seed: int = 0
    restarts: int = 8

    def key(self) -> str:
        return cell_key(
            _members(
                "setup",
                benchmark=self.benchmark,
                n=self.n,
                seed=self.seed,
                restarts=self.restarts,
            )
        )


def _build_setup(task: SetupTask, key: str, cache_root: Optional[str]) -> dict:
    """Build one setup (worker side), writing its
    :func:`~repro.eval.serialize.setup_to_dict` payload through to the
    cache under ``key``, the task's key as the coordinator computed it,
    and return the payload.

    Synthesis and placement are fully seeded, so rebuilding the same
    task in any process yields the identical setup (pinned by the
    seed-determinism tests).
    """
    from repro.eval.runner import prepare

    payload = setup_to_dict(
        prepare(task.benchmark, task.n, seed=task.seed, restarts=task.restarts)
    )
    if cache_root is not None:
        ResultCache(cache_root).put_setup(key, payload)
    return payload


def prepare_setups(
    tasks: Sequence[SetupTask],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[SetupTask, BenchmarkSetup]:
    """Prepare every setup of a grid, in parallel and through the cache.

    Every setup returned is decoded from its payload, whether the cache
    held it or it was just built, so a warm and a cold grid replay the
    same objects.  A cached payload that does not decode (any
    :class:`~repro.errors.ReproError`) is dropped and rebuilt.
    """
    cache_root = str(cache.root) if cache is not None else None
    setups: Dict[SetupTask, BenchmarkSetup] = {}
    misses: Dict[SetupTask, str] = {}
    for task in tasks:
        if task in setups or task in misses:
            continue
        key = task.key()
        cached = cache.get_setup(key) if cache is not None else None
        if cache is not None and cached is not None:
            try:
                setups[task] = setup_from_dict(task, cached)
                continue
            except ReproError:
                cache.drop_setup(key)
        misses[task] = key
    workers = resolve_jobs(jobs)
    if workers is None or len(misses) <= 1:
        for task, key in misses.items():
            setups[task] = setup_from_dict(task, _build_setup(task, key, cache_root))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(misses))) as pool:
            futures = {
                pool.submit(_build_setup, task, key, cache_root): task
                for task, key in misses.items()
            }
            for fut, task in futures.items():
                setups[task] = setup_from_dict(task, fut.result())
    return setups
