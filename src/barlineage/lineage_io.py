"""Lineage dataset files: CSV of ``index,value`` rows.

A cell is observed iff its label appears in the file; missingness is
absence.  Lines starting with ``#`` are comments (the simulator records
its parameters there).  Unlisted cells get X = 0.0, a sentinel the
estimators never read because every term carries the presence bit.
"""

from __future__ import annotations

import numpy as np

from .bar import ValueTree
from .errors import DuplicateIndex, IndexOutOfRange, MissingRoot, ParseError
from .tree import MAX_DEPTH, ObservationTree, generation

HEADER = "index,value"


def ingest(path) -> tuple[ObservationTree, ValueTree]:
    """Parse a lineage file into matching observation and value trees."""
    entries: dict[int, float] = {}
    depth_hint = 0
    with open(path, "r", encoding="utf-8") as fh:
        saw_header = False
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                # the simulator records "# depth=N"; honoring it keeps the
                # round trip exact when the deepest generation died out
                if line.removeprefix("#").strip().startswith("depth="):
                    try:
                        depth_hint = int(line.split("=", 1)[1])
                    except ValueError as exc:
                        raise ParseError(line_no, f"bad depth comment: {exc}") from exc
                continue
            if not saw_header:
                if line != HEADER:
                    raise ParseError(line_no, f"expected header {HEADER!r}, got {line!r}")
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(line_no, f"expected 'index,value', got {line!r}")
            try:
                k = int(parts[0])
                v = float(parts[1])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if k < 1:
                raise ParseError(line_no, f"cell index must be >= 1, got {k}")
            if not np.isfinite(v):
                raise ParseError(line_no, f"non-finite value {parts[1]!r}")
            if k in entries:
                raise DuplicateIndex(line_no, k)
            entries[k] = v
        if not saw_header:
            raise ParseError(0, "empty file")
    # guards the max() below as well as the tree invariant
    if 1 not in entries:
        raise MissingRoot()
    deepest = max(entries)
    if generation(deepest) > MAX_DEPTH:
        raise IndexOutOfRange(deepest)
    depth = max(generation(deepest), depth_hint, 1)
    # from_indices rejects a depth above MAX_DEPTH and reports the
    # smallest orphan label, if any
    tree = ObservationTree.from_indices(depth, entries)
    x = np.zeros(1 << (depth + 1))
    x[list(entries)] = list(entries.values())
    return tree, ValueTree(depth, x)


def emit_lineage(tree: ObservationTree, values: ValueTree, params: dict | None = None) -> str:
    """Render observed cells as a lineage file (17 significant digits)."""
    lines = []
    for key, val in (params or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(HEADER)
    for k in tree.observed_indices():
        lines.append(f"{k},{values.x[k]:.17g}")
    return "\n".join(lines) + "\n"
