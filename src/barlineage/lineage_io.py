"""Lineage dataset files: CSV of ``index,value`` rows.

A cell is observed iff its label appears in the file; missingness is
absence.  Lines starting with ``#`` are comments (the simulator records
its parameters there).  A file becomes the ascending array of its
labels and one trait array aligned with it, so reading it costs memory
in proportion to its rows, whatever its depth.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .bar import ValueTree
from .errors import DuplicateIndex, IndexOutOfRange, MissingRoot, ParseError
from .tree import MAX_DEPTH, ObservationTree, generation

HEADER = "index,value"
# the deepest label a tree of MAX_DEPTH generations holds
_MAX_LABEL = (1 << (MAX_DEPTH + 1)) - 1


def ingest(path) -> tuple[ObservationTree, ValueTree]:
    """Parse a lineage file into matching observation and value trees.

    A file with several defects raises the error of the first line that
    holds one; a file-wide defect (no header, no root, a label or depth
    beyond MAX_DEPTH, an orphan) only when no line does.
    """
    lines = list(map(str.strip, _read_text(path).split("\n")))
    depth_hint, bad_comment = _depth_hint(lines)
    if bad_comment is not None:
        # it is the file's error unless a line above it has one
        del lines[bad_comment.line_no - 1:]
    body = [i for i, s in enumerate(lines) if s and s[0] != "#"]
    if body and lines[body[0]] != HEADER:
        raise ParseError(body[0] + 1, f"expected header {HEADER!r}, got {lines[body[0]]!r}")
    rows = body[1:]
    labels, x_obs = _parse_rows([lines[i] for i in rows], rows)
    if bad_comment is not None:
        raise bad_comment
    if not body:
        raise ParseError(0, "empty file")
    if labels.size == 0 or labels[0] != 1:
        raise MissingRoot()
    deepest = int(labels[-1])
    if generation(deepest) > MAX_DEPTH:
        raise IndexOutOfRange(deepest)
    # the simulator records "# depth=N"; honoring it keeps the round trip
    # exact when the deepest generation died out
    depth = max(generation(deepest), depth_hint, 1)
    # the tree rejects a depth above MAX_DEPTH and reports the smallest
    # orphan label, if any
    tree = ObservationTree(depth, labels)
    return tree, ValueTree(depth, x_obs, tree.observed_indices())


def _read_text(path) -> str:
    """The file as text, with universal newlines (``\\r\\n`` and ``\\r`` read as ``\\n``)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            head = exc.object[:exc.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(line_no, f"not UTF-8 ({exc.reason})") from exc


def _depth_hint(lines: list[str]) -> tuple[int, ParseError | None]:
    """The last ``# depth=N`` comment's N (0 when there is none) and the
    error of the first malformed one, if any."""
    hint = 0
    for i, s in enumerate(lines):
        if s.startswith("#") and s[1:].strip().startswith("depth="):
            try:
                hint = int(s.split("=", 1)[1])
            except ValueError as exc:
                return 0, ParseError(i + 1, f"bad depth comment: {exc}")
    return hint, None


def _parse_rows(rows: list[str], line_idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the stripped data rows, ascending, and their values.

    The checks run in the order one row meets them.  A check that fails
    keeps its error and leaves only the rows above the offending one to
    the checks after it, so the error left at the end names the first
    row with a defect.
    """
    error, n = None, len(rows)
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(1) != n:
        n = next(i for i, c in enumerate(commas) if c != 1)
        error = ParseError(line_idx[n] + 1, f"expected 'index,value', got {rows[n]!r}")
    fields = ",".join(rows[:n]).split(",") if n else []
    try:
        ks = list(map(int, fields[0::2]))
        vs = list(map(float, fields[1::2]))
    except ValueError:
        # find the row that does not convert; the rows above it do
        ks, vs = [], []
        for i in range(n):
            try:
                k, v = int(fields[2 * i]), float(fields[2 * i + 1])
            except ValueError as exc:
                n, error = i, ParseError(line_idx[i] + 1, str(exc))
                break
            ks.append(k)
            vs.append(v)
    # in Python, before the int64 conversion, so that any label < 1 is named
    if ks and min(ks) < 1:
        n = next(i for i, k in enumerate(ks) if k < 1)
        error = ParseError(line_idx[n] + 1, f"cell index must be >= 1, got {ks[n]}")
        del ks[n:], vs[n:]
    x_obs = np.array(vs, dtype=float)
    bad = np.flatnonzero(~np.isfinite(x_obs))
    if bad.size:
        n = int(bad[0])
        error = ParseError(line_idx[n] + 1, f"non-finite value {fields[2 * n + 1]!r}")
        del ks[n:]
    # a label past the deepest tree is rejected after the row checks; an
    # object array keeps one past int64 exact until then
    labels = np.array(ks, dtype=object if ks and max(ks) > _MAX_LABEL else np.int64)
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    # a stable sort keeps equal labels in file order: each repeat follows its first row
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        n = int(repeats.min())
        error = DuplicateIndex(line_idx[n] + 1, ks[n])
    if error is not None:
        raise error
    return ranked, x_obs[order]


def emit_lineage(tree: ObservationTree, values: ValueTree, params: dict | None = None) -> str:
    """Render observed cells as a lineage file (17 significant digits)."""
    lines = [f"# {key}={val}" for key, val in (params or {}).items()]
    lines.append(HEADER)
    traits = values.observed(tree).tolist()
    lines += [f"{k},{v:.17g}" for k, v in zip(tree.observed_indices().tolist(), traits)]
    return "\n".join(lines) + "\n"
