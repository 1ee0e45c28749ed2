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
``2.5`` as 2, with only a DeprecationWarning.  Every other file, every
file that numpy refuses or warns about, and every file that a check
refuses, is read line by line with Python's ``int`` and ``float``, which
also names the first line with a defect; both readers give the same
trees.
"""

from __future__ import annotations

import warnings
from itertools import repeat

import numpy as np

from .bar import ValueTree
from .errors import DuplicateIndex, IndexOutOfRange, MissingRoot, ParseError
from .tree import MAX_DEPTH, ObservationTree, generation

HEADER = "index,value"
# the deepest label a tree of MAX_DEPTH generations holds
_MAX_LABEL = (1 << (MAX_DEPTH + 1)) - 1
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
    file or names its defect.
    """
    head, found, rows = ("\n" + text).partition("\n" + HEADER + "\n")
    if not _BULK or not found or not rows or rows.isspace() or not rows.isascii() or any(
            c in rows for c in "\x1c\x1d\x1e\x1f"):
        return None
    above = list(map(str.strip, head.split("\n")))
    if any(s and s[0] != "#" for s in above):
        return None
    depth_hint, bad_comment = _depth_hint(above)
    if bad_comment is not None:
        return None
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


def _read_lines(text: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Ascending labels, their traits and the depth hint of any file,
    line by line; raises the error of the first line with a defect."""
    lines = list(map(str.strip, text.split("\n")))
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
    return labels, x_obs, depth_hint


def read_text(path) -> str:
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
