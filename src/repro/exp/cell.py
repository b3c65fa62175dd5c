"""The unit of parallel experiment work.

A :class:`Cell` is one independent measurement: a pure, picklable,
module-level function applied to a configuration payload and a seed.
Every figure in this reproduction is a grid of such cells (variant x
block size, policy x workload, ...), which is what makes the experiment
layer embarrassingly parallel: cells share no mutable state, so a
:class:`~repro.exp.runner.Runner` can execute them in any order on any
process and merge results back in submission order.

The contract a cell function must honor:

* top-level (importable by qualified name, so worker processes can
  unpickle it);
* signature ``fn(config, seed) -> result``;
* deterministic — the result depends only on ``(config, seed)``;
* no side effects — it writes no file, and whatever explains the
  measurement travels in the result;
* the result pickles (plain dataclasses, numpy arrays, primitives).

Determinism plus the stable content hash of ``(fn, config, seed)`` is
what makes results content-addressable (:mod:`repro.exp.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exp.hashing import stable_digest


@dataclass(frozen=True)
class Cell:
    """One (function, config, seed) experiment unit.

    ``label`` names the cell in progress/error reporting (defaults to
    the function and seed).
    """

    fn: Callable[[Any, int], Any]
    config: Any
    seed: int = 0
    label: str = ""
    #: optional one-line standalone repro command, surfaced by
    #: :class:`CellError`.  Advisory metadata only: deliberately NOT
    #: part of :meth:`key`, so decorating a cell with a repro hint
    #: cannot invalidate its cached result.
    repro: str = ""

    @property
    def identity(self) -> str:
        """Human-readable name for error messages and progress."""
        if self.label:
            return self.label
        return f"{self.fn.__module__}.{self.fn.__qualname__}(seed={self.seed})"

    def key(self, salt: str) -> str:
        """Content-address of this cell's result.

        Stable across processes: built from the function's qualified
        name, the canonical hash of the config, the seed, and a
        code-version *salt* so stale results die with the code that
        produced them.
        """
        return stable_digest((
            "repro.exp.cell",
            salt,
            f"{self.fn.__module__}.{self.fn.__qualname__}",
            self.config,
            self.seed,
        ))


class CellError(RuntimeError):
    """A cell failed in a worker; carries the failing cell's identity.

    Raised in the parent process with the original exception chained,
    so a 40-cell fan-out that dies names exactly which (config, seed)
    to re-run serially for debugging.  The message carries the cell's
    content-address hash (the cache key prefix, so the stale entry can
    be found and purged) and, when the cell declares one, a one-line
    standalone repro command.
    """

    def __init__(self, cell: Cell, index: int, cause: BaseException,
                 salt: str | None = None) -> None:
        self.cell = cell
        self.index = index
        message = (
            f"experiment cell #{index} [{cell.identity}] failed: "
            f"{type(cause).__name__}: {cause}"
        )
        if salt is None:
            from repro.exp.cache import code_salt
            salt = code_salt()
        try:
            message += f"\n  cell key {cell.key(salt)[:12]}"
        except TypeError:
            pass  # an unhashable config still gets the plain message
        if cell.repro:
            message += f"\n  rerun standalone: {cell.repro}"
        super().__init__(message)


def execute_cell(cell: Cell) -> Any:
    """Run one cell in the current process (the worker entry point)."""
    return cell.fn(cell.config, cell.seed)
