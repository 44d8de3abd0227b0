"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by the
subsystem that raises them (model, topology, synthesis, simulator,
floorplan).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PatternError(ReproError):
    """An invalid communication pattern or message was supplied."""


class TopologyError(ReproError):
    """A network topology is malformed or an operation on it is invalid."""


class RoutingError(ReproError):
    """A routing function could not produce a valid path."""


class SynthesisError(ReproError):
    """The design methodology failed to produce a network."""


class ConstraintError(SynthesisError):
    """A design constraint is unsatisfiable or malformed."""


class SimulationError(ReproError):
    """The flit-level simulator reached an invalid state."""


class WorkloadError(ReproError):
    """A workload/program generator was given invalid parameters."""


class FloorplanError(ReproError):
    """No feasible floorplan could be produced for a network."""


class FaultError(ReproError):
    """A fault specification or campaign is invalid for its network."""
