"""Exception hierarchy.

Tree construction errors carry the offending cell label; statistical
errors carry whatever the caller needs to decide whether the data set is
salvageable (a design block's closed-form condition number, a denominator).
"""

import numpy as np


class BarLineageError(Exception):
    """Base class for all library errors."""


class TreeError(BarLineageError):
    """Invalid observation-tree construction."""


class MissingRoot(TreeError):
    def __init__(self):
        super().__init__("cell 1 (the root) must be observed")


class OrphanCell(TreeError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"cell {k} is observed but its mother {k // 2} is not")


class IndexOutOfRange(TreeError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"cell label {k} out of range")


class DepthError(TreeError):
    def __init__(self, depth, max_depth):
        self.depth = depth
        super().__init__(f"depth {depth} outside supported range [1, {max_depth}]")


class StatError(BarLineageError):
    """A statistic could not be computed from the data at hand."""


def fail_rows(errors, bad, error) -> None:
    """Give each row r that ``bad`` marks the StatError ``error(r)``, kept as
    errors[r] unless an earlier check failed row r."""
    for r in np.flatnonzero(bad):
        errors[r] = errors[r] or error(r)


class NotPositive(StatError):
    def __init__(self, matrix):
        self.matrix = matrix
        super().__init__("descendants matrix must have strictly positive entries")


class DegenerateTypeProportion(StatError):
    def __init__(self, cell_type):
        self.cell_type = cell_type
        super().__init__(f"no observed cells of type {cell_type}: type proportion is 0")


class InsufficientData(StatError):
    def __init__(self, detail):
        super().__init__(f"not enough observed cells: {detail}")


class DegenerateVariance(StatError):
    def __init__(self, detail):
        super().__init__(f"estimated variance is degenerate: {detail}")


class SingularDesign(StatError):
    def __init__(self, cell_type, cond):
        self.cell_type = cell_type
        self.cond = cond
        super().__init__(f"design matrix for type {cell_type} daughters is numerically "
                         f"singular (cond ~ {cond:.3g})")


class NearUnitRoot(StatError):
    def __init__(self, which, value):
        self.which = which
        super().__init__(f"1 - {which} = {value:.3g} too close to 0 for the fixed-point test")


class ParseError(BarLineageError):
    def __init__(self, line_no, detail):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")


class DuplicateIndex(ParseError):
    def __init__(self, line_no, k):
        self.k = k
        super().__init__(line_no, f"duplicate cell index {k}")


class TooManyDiscards(BarLineageError):
    def __init__(self, generation, hypothesis, discarded, total):
        super().__init__(
            f"generation {generation} {hypothesis}: {discarded}/{total} replicas discarded"
        )
