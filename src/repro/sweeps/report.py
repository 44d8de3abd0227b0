"""Schema-versioned sweep artifacts and their renderings.

A :class:`SaturationCurve` is the canonical result of one automated
sweep: the measured latency/throughput points (sorted by offered
load), the detected saturation point, and every parameter that shaped
the sweep.  A :class:`SweepResult` bundles the curves of a multi-cell
study (e.g. the robustness study's topology x pattern grid).

Both serialize to *canonical JSON* (sorted keys, no whitespace — the
same byte-stability contract as the result cache and the verification
certificates), so serial, parallel, and cache-hit sweeps produce
byte-identical artifacts, and CI can diff them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.eval.serialize import canonical_json, loadpoint_to_dict
from repro.simulator.openloop import LoadPoint

#: Bump when the artifact layout changes incompatibly.
#: Schema 2: every load point carries p50/p95/p99 latency percentiles.
SWEEP_SCHEMA = 2


@dataclass(frozen=True)
class SaturationCurve:
    """One automated saturation sweep over a (topology, pattern) pair.

    Attributes:
        topology_name: report label of the swept network.
        pattern: canonical pattern spec (``"tornado"``, ``"hotspot:3:0.8"``).
        num_nodes: node count of the network.
        seed: base seed of every measurement cell.
        points: measured load points, sorted by offered rate (the
            initial grid plus the bisection refinements).
        saturation_rate: estimated offered rate at the knee — the
            midpoint of the final bisection bracket — or ``None`` when
            the network never saturated below the sweep's maximum rate.
        saturation_throughput: highest accepted rate over points below
            saturation (all points, when saturation was never reached).
        saturated: whether any measured point met a saturation
            criterion (see :func:`repro.sweeps.driver.detect_saturation`).
        params: the sweep parameters (rate bounds, grid size,
            refinement depth, cycle windows, detection thresholds).
    """

    topology_name: str
    pattern: str
    num_nodes: int
    seed: int
    points: Tuple[LoadPoint, ...]
    saturation_rate: Optional[float]
    saturation_throughput: float
    saturated: bool
    params: Dict[str, object]

    def to_dict(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "kind": "saturation-curve",
            "topology_name": self.topology_name,
            "pattern": self.pattern,
            "num_nodes": self.num_nodes,
            "seed": self.seed,
            "points": [loadpoint_to_dict(p) for p in self.points],
            "saturation_rate": self.saturation_rate,
            "saturation_throughput": self.saturation_throughput,
            "saturated": self.saturated,
            "params": dict(self.params),
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON text of this curve."""
        return canonical_json(self.to_dict())

    def render(self) -> str:
        return curve_table(self)


def curve_table(curve: SaturationCurve) -> str:
    """Human-readable table of one saturation curve."""
    lines = [
        f"saturation sweep: {curve.pattern} on {curve.topology_name} "
        f"({curve.num_nodes} nodes, seed {curve.seed})",
        f"{'offered':>9} {'accepted':>9} {'latency':>9} "
        f"{'p50':>7} {'p95':>7} {'p99':>7} "
        f"{'delivered':>9} {'saturated':>9}",
    ]
    for p in curve.points:
        lines.append(
            f"{p.offered_flits_per_node_cycle:>9.4f} "
            f"{p.accepted_flits_per_node_cycle:>9.4f} "
            f"{p.avg_latency:>9.1f} "
            f"{p.p50_latency:>7d} {p.p95_latency:>7d} {p.p99_latency:>7d} "
            f"{p.delivered:>9d} "
            f"{str(p.saturated):>9}"
        )
    if curve.saturation_rate is not None:
        lines.append(
            f"saturation: offered ~{curve.saturation_rate:.4f} "
            f"flits/node/cycle (accepted {curve.saturation_throughput:.4f})"
        )
    else:
        lines.append(
            f"no saturation below {_max_rate(curve):.4f} flits/node/cycle "
            f"(peak accepted {curve.saturation_throughput:.4f})"
        )
    return "\n".join(lines)


def curve_csv(curve: SaturationCurve) -> str:
    """CSV rendering (header + one row per load point)."""
    lines = [
        "offered,accepted,avg_latency,p50_latency,p95_latency,p99_latency,"
        "delivered,saturated"
    ]
    for p in curve.points:
        lines.append(
            f"{p.offered_flits_per_node_cycle!r},"
            f"{p.accepted_flits_per_node_cycle!r},"
            f"{p.avg_latency!r},"
            f"{p.p50_latency},{p.p95_latency},{p.p99_latency},"
            f"{p.delivered},{int(p.saturated)}"
        )
    return "\n".join(lines) + "\n"


def _max_rate(curve: SaturationCurve) -> float:
    if curve.points:
        return max(p.offered_flits_per_node_cycle for p in curve.points)
    return float(curve.params.get("max_rate", 0.0))


#: (legend label, ASCII marker, SVG stroke) per percentile series, in
#: draw order — later series win ASCII cell collisions, so the tail
#: stays visible where the curves overlap.  The strokes are the
#: Okabe-Ito colorblind-safe palette.
_PLOT_SERIES = (
    ("p50", "5", "#0072B2"),
    ("p95", "9", "#E69F00"),
    ("p99", "!", "#D55E00"),
)


def curve_plot(
    curve: SaturationCurve,
    fmt: str = "ascii",
    width: int = 64,
    height: int = 16,
) -> str:
    """Dependency-free chart of p50/p95/p99 latency vs offered rate.

    ``fmt="ascii"`` renders a fixed-size character grid (``width`` x
    ``height`` plot area) for terminals and logs; ``fmt="svg"`` emits a
    standalone SVG document (hand-written markup, no plotting library).
    Both mark the detected saturation rate when the sweep found one.
    """
    if fmt not in ("ascii", "svg"):
        raise SimulationError(f"unknown plot format {fmt!r}; use 'ascii' or 'svg'")
    if not curve.points:
        raise SimulationError("cannot plot a curve with no measured points")
    if fmt == "svg":
        return _plot_svg(curve)
    return _plot_ascii(curve, width, height)


def _plot_geometry(curve: SaturationCurve):
    xs = [p.offered_flits_per_node_cycle for p in curve.points]
    series = [
        (label, marker, stroke, [float(getattr(p, f"{label}_latency")) for p in curve.points])
        for label, marker, stroke in _PLOT_SERIES
    ]
    xmin, xmax = min(xs), max(xs)
    xspan = (xmax - xmin) or 1.0
    ymax = max((max(values) for _, _, _, values in series), default=0.0) or 1.0
    return xs, series, xmin, xmax, xspan, ymax


def _plot_ascii(curve: SaturationCurve, width: int, height: int) -> str:
    xs, series, xmin, xmax, xspan, ymax = _plot_geometry(curve)
    grid = [[" "] * width for _ in range(height)]
    for _, marker, _, values in series:
        for x, y in zip(xs, values):
            col = round((x - xmin) / xspan * (width - 1))
            row = height - 1 - round(y / ymax * (height - 1))
            grid[row][col] = marker
    gutter = 9
    lines = [
        f"latency vs offered rate: {curve.pattern} on {curve.topology_name} "
        f"({curve.num_nodes} nodes)",
        "  ".join(f"{marker} = {label}" for label, marker, _ in _PLOT_SERIES),
    ]
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{ymax:.1f}"
        elif i == height - 1:
            label = "0.0"
        else:
            label = ""
        lines.append(f"{label:>{gutter}} |" + "".join(row))
    lines.append(" " * gutter + "  " + "-" * width)
    footer = [" "] * width
    if curve.saturation_rate is not None and xmin <= curve.saturation_rate <= xmax:
        footer[round((curve.saturation_rate - xmin) / xspan * (width - 1))] = "^"
    lines.append(" " * gutter + "  " + "".join(footer).rstrip())
    left = f"{xmin:g}"
    right = f"{xmax:g} flits/node/cycle"
    pad = max(1, width - len(left) - len(right))
    lines.append(" " * gutter + "  " + left + " " * pad + right)
    if curve.saturation_rate is not None:
        lines.append(f"^ saturation at offered ~{curve.saturation_rate:.4f}")
    return "\n".join(lines) + "\n"


def _plot_svg(curve: SaturationCurve) -> str:
    xs, series, xmin, xmax, xspan, ymax = _plot_geometry(curve)
    w, h, ml, mr, mt, mb = 640, 400, 60, 20, 40, 50
    pw, ph = w - ml - mr, h - mt - mb

    def px(x: float) -> float:
        return round(ml + (x - xmin) / xspan * pw, 2)

    def py(y: float) -> float:
        return round(mt + ph - y / ymax * ph, 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{ml}" y="20">latency vs offered rate: {curve.pattern} on '
        f"{curve.topology_name} ({curve.num_nodes} nodes)</text>",
        # Axes.
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml - 5}" y="{mt + 4}" text-anchor="end">{ymax:.1f}</text>',
        f'<text x="{ml - 5}" y="{mt + ph + 4}" text-anchor="end">0</text>',
        f'<text x="{ml}" y="{mt + ph + 16}" text-anchor="middle">{xmin:g}</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 16}" text-anchor="middle">{xmax:g}</text>',
        f'<text x="{ml + pw // 2}" y="{h - 10}" text-anchor="middle">'
        "offered rate (flits/node/cycle)</text>",
    ]
    if curve.saturation_rate is not None and xmin <= curve.saturation_rate <= xmax:
        x = px(curve.saturation_rate)
        parts.append(
            f'<line x1="{x}" y1="{mt}" x2="{x}" y2="{mt + ph}" stroke="gray" '
            'stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x}" y="{mt - 5}" text-anchor="middle" fill="gray">'
            f"saturation {curve.saturation_rate:.4f}</text>"
        )
    for i, (label, _, stroke, values) in enumerate(series):
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in zip(xs, values))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="2"/>'
        )
        for x, y in zip(xs, values):
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{stroke}"/>')
        ly = mt + 16 * i
        parts.append(
            f'<line x1="{ml + pw - 70}" y1="{ly}" x2="{ml + pw - 50}" y2="{ly}" '
            f'stroke="{stroke}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw - 45}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class SweepResult:
    """A bundle of saturation curves from one study.

    Curves are keyed by their ``(topology_label, pattern)`` pair —
    topology labels are study-level names like ``"generated"`` or
    ``"generated+spare"`` that may differ from the underlying
    ``Topology.name``.
    """

    label: str
    curves: Tuple[Tuple[str, str, SaturationCurve], ...]

    def curve(self, topology_label: str, pattern: str) -> SaturationCurve:
        found = self.find_curve(topology_label, pattern)
        if found is None:
            raise SimulationError(
                f"no curve for topology {topology_label!r} / pattern {pattern!r} "
                f"in sweep result {self.label!r}"
            )
        return found

    def find_curve(
        self, topology_label: str, pattern: str
    ) -> Optional[SaturationCurve]:
        """Like :meth:`curve`, but ``None`` on a missing pair — ragged
        grids (a topology swept on a subset of patterns) are legal."""
        for top, pat, curve in self.curves:
            if top == topology_label and pat == pattern:
                return curve
        return None

    @property
    def topology_labels(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for top, _, _ in self.curves:
            if top not in seen:
                seen.append(top)
        return tuple(seen)

    @property
    def patterns(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for _, pat, _ in self.curves:
            if pat not in seen:
                seen.append(pat)
        return tuple(seen)

    def to_dict(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "kind": "sweep-result",
            "label": self.label,
            "curves": [
                {"topology": top, "pattern": pat, "curve": curve.to_dict()}
                for top, pat, curve in self.curves
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def degradation_table(
    result: SweepResult, baseline: str = "mesh", title: Optional[str] = None
) -> str:
    """Saturation throughput per (pattern, topology), relative to a baseline.

    The off-design robustness question in one table: each cell shows a
    topology's saturation throughput and, in parentheses, its ratio to
    the baseline topology's on the same pattern — below 1.0 means the
    topology degrades relative to the baseline on that traffic.

    Ragged grids are tolerated: a (topology, pattern) pair that was
    never swept renders as ``-``, and when the baseline's throughput is
    0 (or the baseline pair is missing) the ratio renders as ``n/a``
    instead of ``inf``.
    """
    tops = result.topology_labels
    if baseline not in tops:
        raise SimulationError(
            f"baseline topology {baseline!r} not in sweep result "
            f"(have {', '.join(tops)})"
        )
    width = max(12, max(len(t) for t in tops) + 9)
    header = f"{'pattern':<16}" + "".join(f"{t:>{width}}" for t in tops)
    lines = [title or f"saturation throughput (flits/node/cycle), "
             f"ratio vs {baseline}", header, "-" * len(header)]
    for pattern in result.patterns:
        base_curve = result.find_curve(baseline, pattern)
        base = base_curve.saturation_throughput if base_curve else 0.0
        row = f"{pattern:<16}"
        for top in tops:
            curve = result.find_curve(top, pattern)
            if curve is None:
                row += f"{'-':>{width}}"
                continue
            sat = curve.saturation_throughput
            ratio = f"{sat / base:4.2f}" if base > 0 else " n/a"
            row += f"{sat:>{width - 7}.4f} ({ratio})"
        lines.append(row)
    return "\n".join(lines)
