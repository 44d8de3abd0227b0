"""Execution traces (the paper's MPE-style communication event logue).

The paper obtains communication patterns by profiling benchmark runs
into a trace of communication library calls.  We reproduce the
pipeline: programs are logically executed into a :class:`Trace` of send
and receive records tagged with their originating library call, and the
analyzer (:mod:`repro.workloads.analyzer`) reconstructs contention
periods from matching calls across processes.  Traces round-trip
through a JSON-lines file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

from repro.errors import WorkloadError
from repro.workloads.events import ComputeEvent, Program, RecvEvent, SendEvent

SEND = "send"
RECV = "recv"


@dataclass(frozen=True)
class TraceRecord:
    """One logged communication library call."""

    process: int
    op: str
    peer: int
    size_bytes: int
    tag: str

    def __post_init__(self) -> None:
        if self.op not in (SEND, RECV):
            raise WorkloadError(f"unknown trace op {self.op!r}")


@dataclass(frozen=True)
class Trace:
    """A complete communication event logue of one program run."""

    name: str
    num_processes: int
    records: Tuple[TraceRecord, ...]

    def sends(self) -> Tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if r.op == SEND)

    def recvs(self) -> Tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if r.op == RECV)

    def tags_in_order(self) -> Tuple[str, ...]:
        """Distinct call tags by first appearance (program phase order)."""
        seen = []
        for r in self.records:
            if r.tag not in seen:
                seen.append(r.tag)
        return tuple(seen)


def trace_program(program: Program) -> Trace:
    """Logically execute a program into its communication trace.

    Events are walked per process in program order; compute events leave
    no trace records (the analyzer only needs call structure).  Records
    are emitted process-major, which is irrelevant to the analyzer (it
    groups by tag).
    """
    records: List[TraceRecord] = []
    for proc, stream in enumerate(program.events):
        for event in stream:
            if isinstance(event, SendEvent):
                records.append(
                    TraceRecord(
                        process=proc,
                        op=SEND,
                        peer=event.dest,
                        size_bytes=event.size_bytes,
                        tag=event.tag,
                    )
                )
            elif isinstance(event, RecvEvent):
                records.append(
                    TraceRecord(
                        process=proc,
                        op=RECV,
                        peer=event.source,
                        size_bytes=0,
                        tag=event.tag,
                    )
                )
            elif not isinstance(event, ComputeEvent):  # pragma: no cover
                raise WorkloadError(f"unknown event {event!r}")
    return Trace(name=program.name, num_processes=program.num_processes, records=tuple(records))


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace as JSON lines (one header line, one per record)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {"name": trace.name, "num_processes": trace.num_processes}
        fh.write(json.dumps(header) + "\n")
        for r in trace.records:
            fh.write(
                json.dumps(
                    {
                        "process": r.process,
                        "op": r.op,
                        "peer": r.peer,
                        "size_bytes": r.size_bytes,
                        "tag": r.tag,
                    }
                )
                + "\n"
            )


_HEADER_FIELDS = ("name", "num_processes")
# TraceRecord's fields, in declaration order.
_RECORD_FIELDS = ("process", "op", "peer", "size_bytes", "tag")


def _line_fields(path: Path, number: int, line: str, names: Tuple[str, ...]) -> list:
    """The values of ``names`` in one JSON line, in that order."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"{path} line {number} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise WorkloadError(f"{path} line {number} is not a JSON object")
    missing = [name for name in names if name not in raw]
    if missing:
        raise WorkloadError(f"{path} line {number} lacks {', '.join(missing)}")
    return [raw[name] for name in names]


def read_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`write_trace`.

    A line that is not a JSON object, or that lacks a field, raises
    :class:`WorkloadError` naming the file and the line number.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise WorkloadError(f"trace file {path} is empty")
    name, num_processes = _line_fields(path, *lines[0], _HEADER_FIELDS)
    records = []
    for number, line in lines[1:]:
        fields = _line_fields(path, number, line, _RECORD_FIELDS)
        try:
            records.append(TraceRecord(*fields))
        except WorkloadError as exc:
            raise WorkloadError(f"{path} line {number}: {exc}") from exc
    return Trace(name=name, num_processes=num_processes, records=tuple(records))
