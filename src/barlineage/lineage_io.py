"""Lineage dataset files: CSV of ``index,value`` rows.

A cell is observed iff its label appears in the file; missingness is
absence.  Lines starting with ``#`` are comments (the simulator records
its parameters there).  A file becomes the ascending array of its
labels and one trait array aligned with it, so reading it costs memory
in proportion to its rows, whatever its depth.

A well-formed file is read in one C-level pass: its rows below the
header go to one ``np.loadtxt`` call when only comment or blank lines
stand above the header and the rows are ASCII without ``\\x1c``-``\\x1f``
(the two places where numpy 2.4's number parser and Python's disagree).
That C pass runs only on numpy 2.4 or later, the parser those
disagreements were scanned on: numpy 1.23-1.26 reads a label such as
``2.5`` as 2, with only a DeprecationWarning.  Every other file, and
every file that numpy refuses or warns about or that a check refuses,
is read by one loop over its lines: it reads each row with Python's
``int`` and ``float``, checks the row where it stands and raises at the
first line with a defect.  Both readers give the same trees.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .bar import ValueTree
from .errors import DuplicateIndex, IndexOutOfRange, MissingRoot, ParseError
from .tree import MAX_DEPTH, ObservationTree, generation

HEADER = "index,value"
_ROW = [("k", np.int64), ("v", np.float64)]
# numpy 2.4.6's parser was checked against Python's; 1.23-1.26 truncate "2.5"
_BULK = np.lib.NumpyVersion(np.__version__) >= "2.4.0"


def ingest(path) -> tuple[ObservationTree, ValueTree]:
    """Parse a lineage file into matching observation and value trees.

    A file with several defects raises the error of the first line that
    holds one; a file-wide defect (no header, no root, a label or depth
    beyond MAX_DEPTH, an orphan) only when no line does.
    """
    text = read_text(path)
    labels, x_obs, depth_hint = _read_bulk(text) or _read_lines(text)
    if len(labels) == 0 or labels[0] != 1:
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


def _read_bulk(text: str) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Ascending labels, their traits and the depth hint of a well-formed
    file, read by one ``np.loadtxt`` call; None for any other file, and
    for every file on a numpy older than 2.4.

    It reads files whose lines above an exact ``index,value`` line are
    comments or blank and whose rows below it are ASCII without
    ``\\x1c``-``\\x1f``.  On those numpy's parser reads a field as Python's
    ``int`` or ``float`` does, or refuses it; elsewhere it reads some
    non-ASCII characters as digits and ``\\x1c``-``\\x1f`` as blanks.  A
    row that numpy refuses (a defect, a comment, a line of blanks, a
    spelling only Python reads), a numpy warning, or a label or trait
    that a check rejects returns None, so that ``_read_lines`` reads the
    file or names its defect.  A bad ``# depth=`` above the header, the
    file's first defect, raises.
    """
    head, found, rows = ("\n" + text).partition("\n" + HEADER + "\n")
    if not _BULK or not found or not rows or rows.isspace() or not rows.isascii() or any(
            c in rows for c in "\x1c\x1d\x1e\x1f"):
        return None
    above = list(map(str.strip, head.split("\n")))
    if any(s and s[0] != "#" for s in above):
        return None
    depth_hint = 0
    for line_no, s in enumerate(above):  # the "\n" put in front makes above[i] line i
        depth_hint = _depth_hint(s, line_no, depth_hint)
    try:
        with warnings.catch_warnings():
            # a numpy warning, such as one for a label it truncates, sends
            # the file to the line reader
            warnings.simplefilter("error")
            cells = np.loadtxt(rows.split("\n"), delimiter=",", dtype=_ROW, comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    order = np.argsort(cells["k"], kind="stable")
    labels, x_obs = cells["k"][order], cells["v"][order]
    if labels[0] < 1 or (labels[1:] == labels[:-1]).any() or not np.isfinite(x_obs).all():
        return None
    return labels, x_obs, depth_hint


def _read_lines(text: str) -> tuple[list[int], np.ndarray, int]:
    """Ascending labels (Python ints), their traits and the depth hint of
    any file, one line at a time; each line is checked where it stands,
    so the first line with a defect raises."""
    hint, header, cells = 0, False, {}
    for line_no, s in enumerate(map(str.strip, text.split("\n")), start=1):
        if not s or s[0] == "#":
            hint = _depth_hint(s, line_no, hint)
        elif not header:
            if s != HEADER:
                raise ParseError(line_no, f"expected header {HEADER!r}, got {s!r}")
            header = True
        else:
            fields = s.split(",")
            if len(fields) != 2:
                raise ParseError(line_no, f"expected 'index,value', got {s!r}")
            try:
                k, v = int(fields[0]), float(fields[1])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if k < 1:
                raise ParseError(line_no, f"cell index must be >= 1, got {k}")
            if not math.isfinite(v):
                raise ParseError(line_no, f"non-finite value {fields[1]!r}")
            if k in cells:
                raise DuplicateIndex(line_no, k)
            cells[k] = v
    if not header:
        raise ParseError(0, "empty file")
    labels = sorted(cells)
    return labels, np.array([cells[k] for k in labels], dtype=float), hint


def read_text(path) -> str:
    """The file as text, with universal newlines (``\\r\\n`` and ``\\r`` read as ``\\n``)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            head = exc.object[:exc.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(line_no, f"not UTF-8 ({exc.reason})") from exc


def _depth_hint(line: str, line_no: int, hint: int) -> int:
    """The depth hint after one stripped comment or blank line: N for a
    ``# depth=N`` comment, ``hint`` for any other."""
    if not (line.startswith("#") and line[1:].strip().startswith("depth=")):
        return hint
    try:
        return int(line.split("=", 1)[1])
    except ValueError as exc:
        raise ParseError(line_no, f"bad depth comment: {exc}") from exc


def emit_lineage(tree: ObservationTree, values: ValueTree, params: dict | None = None) -> str:
    """Render observed cells as a lineage file (17 significant digits)."""
    lines = [f"# {key}={val}" for key, val in (params or {}).items()]
    lines.append(HEADER)
    traits = values.observed(tree).tolist()
    lines += [f"{k},{v:.17g}" for k, v in zip(tree.observed_indices().tolist(), traits)]
    return "\n".join(lines) + "\n"
