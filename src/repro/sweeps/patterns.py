"""The canonical synthetic traffic suite, as one extensible registry.

Standard NoC evaluation characterizes a network by its
latency-vs-offered-load curve under a small set of canonical
destination patterns (Dally & Towles ch. 3; the same suite appears in
the Pareto-optimization and guaranteed-QoS lines of work in PAPERS.md).
This module provides that suite as composable
:data:`DestinationPattern` callables plus a registry mapping pattern
*specs* — strings like ``"tornado"`` or ``"hotspot:3:0.8"`` — to
resolved callables.  The pattern type and the default
``uniform_random`` pattern belong to :mod:`repro.simulator.openloop`,
which injects the traffic; this module builds the suite on them.

Pattern contract
----------------
A pattern is ``pattern(src, n, rng) -> dest`` with ``dest != src``.
The open-loop injector resamples a self draw (bounded); a pattern that
still returns the source raises :class:`~repro.errors.SimulationError`
naming the node, since that node could never inject.  Structured
patterns therefore map their fixed points (the transpose diagonal,
the all-ones shuffle cycle, …) to uniform random draws, which
preserves the offered load.

``transpose`` needs a square node count, the ``bit_*`` and ``shuffle``
permutations need a power of two.  On an incompatible ``n`` both the
pattern and :func:`resolve_pattern` raise
:class:`~repro.errors.SimulationError` naming the spec, ``n`` and the
nearest valid sizes; no pattern ever runs other traffic under its own
label.

All patterns are seed-deterministic: destinations depend only on
``(src, n)`` and the draws they take from the supplied ``rng``.

Registry
--------
Specs are ``name`` or ``name:arg1:arg2...``.  Use
:func:`resolve_pattern` to turn a spec into a callable,
:func:`pattern_names` for the registered names, and
:func:`register_pattern` to extend the suite.  The ``adversarial``
pattern is routing-aware — it needs a topology at resolve time and
builds the permutation that (greedily) maximizes the load on the
busiest channel of the given routing function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulator.openloop import DestinationPattern, uniform_random

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.builders import Topology

# requirement key -> human description of the node-count constraint.
_REQUIREMENT_TEXT = {
    "square": "a square node count",
    "pow2": "a power-of-two node count",
}


def _check_size(name: str, requirement: str, n: int) -> None:
    """Raise :class:`SimulationError` unless ``n`` meets a size requirement.

    The message names the pattern spec, ``n`` and the valid node counts
    bracketing it.  The patterns run their own cheap test on every draw
    and call this only when it fails.
    """
    if requirement == "square":
        side = int(n ** 0.5)
        if side * side == n:
            return
        below, above = max(1, side) ** 2, (side + 1) ** 2
    else:
        if n > 0 and not n & (n - 1):
            return
        below, above = 1 << max(0, n.bit_length() - 1), 1 << n.bit_length()
    raise SimulationError(
        f"pattern spec {name!r} requires {_REQUIREMENT_TEXT[requirement]} "
        f"but got n={n} (nearest valid sizes: {below} and {above})"
    )


# ---------------------------------------------------------------------------
# The canonical suite
# ---------------------------------------------------------------------------


def neighbor_pattern(src: int, n: int, rng: random.Random) -> int:
    """Ring neighbour (+1)."""
    return (src + 1) % n


def tornado_pattern(src: int, n: int, rng: random.Random) -> int:
    """Half-way-around offset: ``dest = (src + n//2) % n``.

    The classic adversary for minimal routing on rings and tori —
    every packet travels the maximum minimal distance.
    """
    if n < 2:
        return src
    return (src + n // 2) % n


def transpose_pattern(src: int, n: int, rng: random.Random) -> int:
    """Matrix-transpose destination on a square grid.

    Diagonal nodes (self maps) draw uniformly; a non-square ``n``
    raises (see the module docstring).
    """
    side = int(n ** 0.5)
    if side * side != n:
        _check_size("transpose", "square", n)
    dest = (src % side) * side + src // side
    if dest == src:
        return uniform_random(src, n, rng)
    return dest


def bit_complement_pattern(src: int, n: int, rng: random.Random) -> int:
    """Bitwise complement within ``log2(n)`` bits."""
    if n < 1 or n & (n - 1):
        _check_size("bit_complement", "pow2", n)
    dest = src ^ (n - 1)
    if dest == src:  # n == 1 only
        return uniform_random(src, n, rng)
    return dest


def bit_reverse_pattern(src: int, n: int, rng: random.Random) -> int:
    """Reverse the ``log2(n)``-bit address (palindromes draw uniformly)."""
    if n < 1 or n & (n - 1):
        _check_size("bit_reverse", "pow2", n)
    bits = n.bit_length() - 1
    dest = 0
    for i in range(bits):
        if src & (1 << i):
            dest |= 1 << (bits - 1 - i)
    if dest == src:
        return uniform_random(src, n, rng)
    return dest


def bit_rotation_pattern(src: int, n: int, rng: random.Random) -> int:
    """Rotate the address right by one bit (unshuffle)."""
    if n < 1 or n & (n - 1):
        _check_size("bit_rotation", "pow2", n)
    bits = n.bit_length() - 1
    if bits == 0:
        return uniform_random(src, n, rng)
    dest = (src >> 1) | ((src & 1) << (bits - 1))
    if dest == src:
        return uniform_random(src, n, rng)
    return dest


def shuffle_pattern(src: int, n: int, rng: random.Random) -> int:
    """Perfect shuffle: rotate the address left by one bit."""
    if n < 1 or n & (n - 1):
        _check_size("shuffle", "pow2", n)
    bits = n.bit_length() - 1
    if bits == 0:
        return uniform_random(src, n, rng)
    dest = ((src << 1) | (src >> (bits - 1))) & (n - 1)
    if dest == src:
        return uniform_random(src, n, rng)
    return dest


def hotspot_pattern(hotspot: int = 0, bias: float = 0.5) -> DestinationPattern:
    """A fraction ``bias`` of traffic targets one node, rest uniform."""
    if not 0.0 <= bias <= 1.0:
        raise SimulationError(f"hotspot bias must be in [0, 1], got {bias}")

    def pattern(src: int, n: int, rng: random.Random) -> int:
        if src != hotspot and rng.random() < bias:
            return hotspot
        return uniform_random(src, n, rng)

    return pattern


# ---------------------------------------------------------------------------
# Routing-aware adversarial permutation
# ---------------------------------------------------------------------------


def adversarial_permutation(topology: "Topology") -> Dict[int, int]:
    """A permutation greedily maximizing the busiest channel's load.

    Sources are assigned in ascending order; each takes the unused
    destination whose route pushes the maximum per-channel load highest,
    breaking ties toward routes that cross more already-loaded channels,
    then toward longer routes (more channels claimed), then toward the
    lowest destination id.  Deterministic for a given topology+routing,
    so sweep cells keyed on the topology fingerprint stay cacheable.
    """
    from repro.model.message import Communication

    n = topology.network.num_processors
    if n < 2:
        raise SimulationError("adversarial pattern needs at least two nodes")
    loads: Dict[Tuple, int] = {}
    perm: Dict[int, int] = {}
    unused: List[int] = list(range(n))
    for src in range(n):
        best: Optional[Tuple[int, int, int, int]] = None
        best_dest: Optional[int] = None
        best_hops: Tuple = ()
        for dest in unused:
            if dest == src:
                continue
            hops = topology.routing.route(Communication(src, dest)).hops
            peak = max((loads.get(h, 0) + 1 for h in hops), default=0)
            along = sum(loads.get(h, 0) for h in hops)
            score = (peak, along, len(hops), -dest)
            if best is None or score > best:
                best = score
                best_dest = dest
                best_hops = hops
        if best_dest is None:
            # Only ``src`` itself is left: swap with an earlier source
            # whose destination is not ``src`` to keep a derangement.
            for other in range(src):
                if perm[other] != src:
                    perm[src] = perm[other]
                    perm[other] = src
                    break
            continue
        perm[src] = best_dest
        unused.remove(best_dest)
        for h in best_hops:
            loads[h] = loads.get(h, 0) + 1
    return perm


def adversarial_pattern(topology: "Topology") -> DestinationPattern:
    """Fixed permutation maximizing channel load on ``topology``'s routing."""
    perm = adversarial_permutation(topology)

    def pattern(src: int, n: int, rng: random.Random) -> int:
        dest = perm.get(src, src)
        if dest == src:
            return uniform_random(src, n, rng)
        return dest

    return pattern


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternEntry:
    """One registered pattern family.

    ``factory(params, topology)`` builds the callable; ``requires``
    names a node-count requirement checked whenever the node count is
    known at resolve time (``"square"`` or ``"pow2"``); ``needs_topology`` marks
    routing-aware patterns that cannot resolve without one.
    """

    name: str
    factory: Callable[[Tuple[str, ...], Optional["Topology"]], DestinationPattern]
    requires: Optional[str] = None
    needs_topology: bool = False
    description: str = ""


_REGISTRY: Dict[str, PatternEntry] = {}


def register_pattern(
    name: str,
    factory: Callable[[Tuple[str, ...], Optional["Topology"]], DestinationPattern],
    requires: Optional[str] = None,
    needs_topology: bool = False,
    description: str = "",
) -> None:
    """Register (or replace) a pattern family under ``name``."""
    if ":" in name:
        raise SimulationError(f"pattern name {name!r} may not contain ':'")
    if requires is not None and requires not in _REQUIREMENT_TEXT:
        raise SimulationError(
            f"unknown size requirement {requires!r}; "
            f"choose from {tuple(_REQUIREMENT_TEXT)}"
        )
    _REGISTRY[name] = PatternEntry(
        name=name,
        factory=factory,
        requires=requires,
        needs_topology=needs_topology,
        description=description,
    )


def pattern_names() -> Tuple[str, ...]:
    """Registered pattern family names, sorted."""
    return tuple(sorted(_REGISTRY))


def pattern_catalog() -> Dict[str, str]:
    """name -> one-line description, for docs and ``--help`` output."""
    return {name: _REGISTRY[name].description for name in pattern_names()}


def pattern_entries() -> Tuple[PatternEntry, ...]:
    """The registered :class:`PatternEntry` rows, sorted by name."""
    return tuple(_REGISTRY[name] for name in pattern_names())


def canonical_spec(spec: str) -> str:
    """Normalized spec string used in cache keys and artifacts.

    Validates the name and normalizes parameter formatting
    (``"hotspot:03:0.50"`` -> ``"hotspot:3:0.5"``).
    """
    name, params = _parse_spec(spec)
    if name == "hotspot":
        node, bias = _hotspot_params(params)
        return f"hotspot:{node}:{_format_float(bias)}"
    if params:
        raise SimulationError(
            f"pattern {name!r} takes no parameters, got {spec!r}"
        )
    return name


def resolve_pattern(
    spec: str,
    n: Optional[int] = None,
    topology: Optional["Topology"] = None,
) -> DestinationPattern:
    """Turn a pattern spec into a destination callable.

    Args:
        spec: ``name`` or ``name:arg1:arg2`` (see :func:`pattern_names`).
        n: node count, when known — checked against the pattern's
            node-count requirement (a violation raises
            :class:`SimulationError`) and against hotspot node ids.
        topology: required by routing-aware patterns (``adversarial``);
            also supplies ``n`` when not given explicitly.
    """
    name, params = _parse_spec(spec)
    entry = _REGISTRY[name]
    if topology is not None and n is None:
        n = topology.network.num_processors
    if entry.needs_topology and topology is None:
        raise SimulationError(
            f"pattern {name!r} is routing-aware and needs a topology to resolve"
        )
    if n is not None and entry.requires is not None:
        _check_size(name, entry.requires, n)
    pattern = entry.factory(params, topology)
    if name == "hotspot" and n is not None:
        node, _ = _hotspot_params(params)
        if not 0 <= node < n:
            raise SimulationError(
                f"hotspot node {node} outside range(0, {n})"
            )
    return pattern


def _parse_spec(spec: str) -> Tuple[str, Tuple[str, ...]]:
    parts = spec.split(":")
    name = parts[0]
    if name not in _REGISTRY:
        known = ", ".join(pattern_names())
        raise SimulationError(f"unknown pattern {spec!r}; known: {known}")
    return name, tuple(parts[1:])


def _format_float(value: float) -> str:
    """Shortest stable decimal form (``0.50`` -> ``"0.5"``)."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _hotspot_params(params: Tuple[str, ...]) -> Tuple[int, float]:
    """Parse ``hotspot[:node[:bias]]`` parameters with defaults 0, 0.5."""
    if len(params) > 2:
        raise SimulationError(
            f"hotspot takes at most node and bias, got {':'.join(params)!r}"
        )
    try:
        node = int(params[0]) if len(params) >= 1 and params[0] != "" else 0
        bias = float(params[1]) if len(params) >= 2 else 0.5
    except ValueError as exc:
        raise SimulationError(f"malformed hotspot spec parameters: {exc}") from None
    if not 0.0 <= bias <= 1.0:
        raise SimulationError(f"hotspot bias must be in [0, 1], got {bias}")
    if node < 0:
        raise SimulationError(f"hotspot node must be non-negative, got {node}")
    return node, bias


def _simple(pattern: DestinationPattern):
    def factory(params: Tuple[str, ...], topology: Optional["Topology"]):
        return pattern

    return factory


def _hotspot_factory(params: Tuple[str, ...], topology: Optional["Topology"]):
    node, bias = _hotspot_params(params)
    return hotspot_pattern(hotspot=node, bias=bias)


def _adversarial_factory(params: Tuple[str, ...], topology: Optional["Topology"]):
    if topology is None:  # pragma: no cover - guarded in resolve_pattern
        raise SimulationError("adversarial pattern needs a topology")
    return adversarial_pattern(topology)


register_pattern(
    "uniform", _simple(uniform_random),
    description="every other node equally likely",
)
register_pattern(
    "neighbor", _simple(neighbor_pattern),
    description="ring neighbour (+1 mod n)",
)
register_pattern(
    "tornado", _simple(tornado_pattern),
    description="half-way-around offset (src + n/2 mod n)",
)
register_pattern(
    "transpose", _simple(transpose_pattern), requires="square",
    description="matrix transpose on the square grid",
)
register_pattern(
    "bit_complement", _simple(bit_complement_pattern), requires="pow2",
    description="bitwise complement of the address",
)
register_pattern(
    "bit_reverse", _simple(bit_reverse_pattern), requires="pow2",
    description="bit-reversed address",
)
register_pattern(
    "bit_rotation", _simple(bit_rotation_pattern), requires="pow2",
    description="address rotated right by one bit",
)
register_pattern(
    "shuffle", _simple(shuffle_pattern), requires="pow2",
    description="perfect shuffle (address rotated left by one bit)",
)
register_pattern(
    "hotspot", _hotspot_factory,
    description="hotspot:<node>:<bias> — biased fraction targets one node",
)
register_pattern(
    "adversarial", _adversarial_factory, needs_topology=True,
    description="routing-aware permutation maximizing peak channel load",
)
