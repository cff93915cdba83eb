"""Dynamic-measure sweeps across downsampling factors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .downsample import downsample_iss
from .gem import GemSummary, gem_time_domain
from .model import ISSModel, _is_int

__all__ = ["SweepRow", "SweepResult", "run_scenario_sweep"]


class SweepRow(NamedTuple):
    factor: int
    measures: GemSummary


@dataclass(frozen=True)
class SweepResult:
    """Measures of each downsampled model, in the order the factors were given."""

    rows: tuple[SweepRow, ...]

    def factor(self, m: int) -> GemSummary:
        for row in self.rows:
            if row.factor == m:
                return row.measures
        raise KeyError(f"no sweep row for factor {m}")

    def column(self, name: str) -> tuple[float, ...]:
        return tuple(getattr(row.measures, name) for row in self.rows)


def run_scenario_sweep(model: ISSModel, factors) -> SweepResult:
    """Downsample by each factor and collect the time-domain measures.

    Factors must be strictly increasing positive integers; factor 1 reports
    the measures of the model itself.
    """
    model.require_partition()
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one downsampling factor")
    if any(not _is_int(m) or m < 1 for m in factors):
        raise ValueError("downsampling factors must be positive integers")
    if any(b <= a for a, b in zip(factors, factors[1:])):
        raise ValueError("downsampling factors must be strictly increasing")

    rows = []
    for m in factors:
        reduced = downsample_iss(model, m)
        rows.append(SweepRow(int(m), gem_time_domain(reduced)))
    return SweepResult(tuple(rows))
