"""SSD simulator: FTL, the device (timed or zero-latency), SMART,
compression, timing."""

from repro.ssd.config import SsdConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import Ftl
from repro.ssd.ops import FlashOp, OpKind, OpReason
from repro.ssd.smart import SmartCounters

__all__ = [
    "SsdConfig",
    "SimulatedSSD",
    "Ftl",
    "FlashOp",
    "OpKind",
    "OpReason",
    "SmartCounters",
]

from repro.ssd.openchannel import HostFtl, OpenChannelSSD  # noqa: E402
from repro.ssd.recovery import RecoveryReport, recover_ftl  # noqa: E402

__all__ += [
    "OpenChannelSSD",
    "HostFtl",
    "recover_ftl",
    "RecoveryReport",
]
