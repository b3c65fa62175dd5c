"""Discrete-event simulation kernel (virtual clock, resources, processes).

See :mod:`repro.sim.kernel` for the pieces; :class:`~repro.ssd.timed.TimedSSD`
is the main client.
"""

from repro.sim.kernel import (
    CapacityPool,
    Kernel,
    PowerLoss,
    Process,
    Resource,
)

__all__ = ["Kernel", "PowerLoss", "Resource", "CapacityPool", "Process"]
