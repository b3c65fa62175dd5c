"""NAND flash substrate: geometry, array state, ONFI bus, timing, signals."""

from repro.flash.geometry import Geometry, PhysicalAddress
from repro.flash.nand import (
    NO_LPN,
    FlashViolation,
    NandArray,
    PageState,
)
from repro.flash.timing import MLC, PSLC, SLC, TLC, TimingProfile, profile

__all__ = [
    "Geometry",
    "PhysicalAddress",
    "NandArray",
    "FlashViolation",
    "PageState",
    "NO_LPN",
    "TimingProfile",
    "profile",
    "SLC",
    "MLC",
    "TLC",
    "PSLC",
]
