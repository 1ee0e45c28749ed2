"""Shared result container for the three Wald tests."""

from __future__ import annotations

from dataclasses import dataclass, field


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
        return {
            "test": self.test,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "n_Tstar": self.n_tstar,
            "estimates": self.estimates,
            "warnings": list(self.warnings),
        }


def outcomes(errors, report):
    """One tree's ``report(None)`` (``errors`` None); for a forest, each
    row's first StatError or else its ``report(r)``."""
    if errors is None:
        return report(None)
    return [e or report(r) for r, e in enumerate(errors)]
