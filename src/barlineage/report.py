"""The Wald tests' result container, and the one builder of each row's report."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import StatError
from .numerics import chi2_sf


@dataclass
class TestReport:
    """Outcome of one asymmetry test on one tree.

    ``estimates`` carries the plug-in quantities behind the statistic
    (parameter estimates, the quadratic-form variance, the difference
    being tested) so reports are auditable without re-running.
    """

    test: str
    statistic: float
    df: int
    p_value: float
    n_tstar: int                      # |T*_{n-1}|, the normalizing sample size
    estimates: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {("n_Tstar" if k == "n_tstar" else k): v for k, v in asdict(self).items()}


def outcomes(test, df, statistic, n_tstar, errors, estimates, warnings=None):
    """Each row's first StatError, or else its TestReport: ``statistic[r]``
    and its chi-square tail on ``df`` degrees of freedom, ``n_tstar[r]``,
    ``estimates(r)`` and ``warnings[r]``."""
    return [e or TestReport(test, s, df, chi2_sf(s, df), int(n_tstar[r]), estimates(r),
                            [] if warnings is None else list(warnings[r]))
            for r, (e, s) in enumerate(zip(errors, statistic.tolist()))]


def first(rows):
    """Row 0 of a one-row forest's outcomes or errors, or its StatError raised."""
    if isinstance(rows[0], StatError):
        raise rows[0]
    return rows[0]
