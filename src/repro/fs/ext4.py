"""An EXT4-flavoured in-place, journaling file-system model.

Block-trace behaviour captured (ordered-mode journaling):

* data writes go **in place** to the file's extents;
* every metadata change appends a descriptor+commit pair to a circular
  journal region (JBD2), then the metadata (inode/bitmap sectors) is
  written **in place** at its home location;
* the allocator is first-fit over a fragmenting free map, so aged images
  produce scattered extents and scattered in-place writes — the access
  pattern that interacts badly with some FTLs in Fig 1;
* deletes do not discard by default (mount option ``discard`` off, the
  common configuration in the Geriatrix study's era).
"""

from __future__ import annotations

from repro.fs.vfs import Extent, FileMeta, FreeSpaceMap, FsError, FsModel


class Ext4Model(FsModel):
    """In-place journaling FS over a block device."""

    name = "ext4"

    #: sectors appended to the journal per metadata transaction.
    JOURNAL_SECTORS_PER_TXN = 2

    def __init__(
        self,
        device,
        journal_sectors: int = 1024,
        metadata_sectors: int = 512,
        discard: bool = False,
    ) -> None:
        super().__init__(device)
        total = device.num_sectors
        overhead = journal_sectors + metadata_sectors
        if overhead >= total:
            raise FsError("device too small for journal + metadata regions")
        self.journal = Extent(0, journal_sectors)
        self.metadata = Extent(journal_sectors, metadata_sectors)
        self.space = FreeSpaceMap(overhead, total - overhead)
        self.discard = discard
        self._journal_cursor = 0
        self._inode_counter = 0
        self._inode_of: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def create(self, name: str, sectors: int) -> None:
        if name in self.files:
            raise FsError(f"file exists: {name!r}")
        extents = self.space.allocate(sectors)
        self.files[name] = FileMeta(name, extents)
        self._inode_of[name] = self._inode_counter
        self._inode_counter += 1
        self._journal_txn()
        self._write_inode(name)
        self._write_bitmap(extents)
        for extent in extents:
            self.device.write_sectors(extent.start, extent.length)
        self.stats.creates += 1

    def delete(self, name: str) -> None:
        meta = self._file(name)
        self._journal_txn()
        self._write_inode(name)
        self._write_bitmap(meta.extents)
        if self.discard:
            for extent in meta.extents:
                self.device.trim_sectors(extent.start, extent.length)
        self.space.release(meta.extents)
        del self.files[name]
        del self._inode_of[name]
        self.stats.deletes += 1

    def overwrite(self, name: str, offset: int, sectors: int) -> None:
        """Ordered mode: data in place, then journaled metadata."""
        meta = self._file(name)
        for extent in self._slice_extents(meta, offset, sectors):
            self.device.write_sectors(extent.start, extent.length)
        self._journal_txn()
        self._write_inode(name)  # mtime update
        self.stats.overwrites += 1

    def append(self, name: str, sectors: int) -> None:
        meta = self._file(name)
        extents = self.space.allocate(sectors)
        meta.extents.extend(extents)
        self._journal_txn()
        self._write_inode(name)
        self._write_bitmap(extents)
        for extent in extents:
            self.device.write_sectors(extent.start, extent.length)
        self.stats.appends += 1

    # ------------------------------------------------------------------
    # Metadata write patterns
    # ------------------------------------------------------------------

    def _journal_txn(self) -> None:
        """Append one descriptor+commit pair to the circular journal."""
        for _ in range(self.JOURNAL_SECTORS_PER_TXN):
            lba = self.journal.start + self._journal_cursor
            self.device.write_sectors(lba, 1)
            self._journal_cursor = (self._journal_cursor + 1) % self.journal.length

    def _write_inode(self, name: str) -> None:
        """In-place write of the file's inode-table sector."""
        slot = self._inode_of[name] % self.metadata.length
        self.device.write_sectors(self.metadata.start + slot, 1)

    def _write_bitmap(self, extents: list[Extent]) -> None:
        """In-place writes of the block-group bitmap sectors touched."""
        group_size = max(1, self.space.size // self.metadata.length)
        touched = set()
        for extent in extents:
            first = (extent.start - self.space.base) // group_size
            last = (extent.end - 1 - self.space.base) // group_size
            touched.update(range(first, last + 1))
        for group in sorted(touched):
            self.device.write_sectors(
                self.metadata.start + group % self.metadata.length, 1)
