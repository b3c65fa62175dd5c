"""File-system models: ext4-like, f2fs-like, and Geriatrix-style aging."""

from repro.fs.aging import PROFILES, AgingProfile, age_filesystem
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.fs.vfs import Extent, FsError, FsModel

__all__ = [
    "Ext4Model",
    "F2fsModel",
    "FsModel",
    "FsError",
    "Extent",
    "AgingProfile",
    "age_filesystem",
    "PROFILES",
]
