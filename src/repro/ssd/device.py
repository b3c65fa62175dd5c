"""Counter mode: the drive a write-amplification study sees.

:func:`SimulatedSSD` names a zero-latency :class:`~repro.ssd.timed.TimedSSD`:
the same FTL, SMART statistics and host interface, with every request
completing at its submit time and no op scheduled.  Nothing else about
the device is visible through it, which is the point: the transparency
experiments in :mod:`repro.core` must work from this surface (plus, for
the RE studies, the probe/JTAG substrates).
"""

from __future__ import annotations

from repro.flash.errors import FailureInjector
from repro.ssd.config import SsdConfig
from repro.ssd.timed import TimedSSD

__all__ = ["SimulatedSSD"]


def SimulatedSSD(config: SsdConfig, model: str = "repro-ssd",
                 injector: FailureInjector | None = None) -> TimedSSD:
    """A counter-mode drive: ``TimedSSD(config, zero_latency=True)``."""
    return TimedSSD(config, model=model, injector=injector, zero_latency=True)
