"""Tunable knobs for window widening and stabilization checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Widening policy for Hom computations on tailed sequences.

    Answers are computed on a window enlarged by ``base_margin`` degrees on
    each side and accepted only when ``extra_checks`` further one-step
    widenings leave every reported dimension unchanged.  The widened windows
    are not eliminated anew: their ranks come from the base window's
    elimination plus the rows each ring of tail degrees adds.  If agreement
    is not reached the margin grows by one and the attempt repeats, up to a
    depth limit of ``3 * span + |degree| + 4`` widenings.
    """

    base_margin: int = 3
    extra_checks: int = 2

    def depth_limit(self, span: int, degree: int = 0) -> int:
        return 3 * span + abs(degree) + 4


DEFAULT = Config()
