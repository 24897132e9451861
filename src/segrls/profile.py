"""Forgetting-weight laws over window lags and their low-rank update templates.

Three laws are supported: a segmented profile (fast exponential head, a drop,
then a slow exponential tail out to the window edge), a finite-window
exponential profile, and the classical infinite-memory exponential profile.
``weights`` is the one evaluator of a law: it returns f(0..count-1) as a
vector.  For each law the per-step correction of the weighted information
matrix is a small signed batch of scaled lagged regressor columns;
``update_template`` derives the exact lags, scales and signs of that batch in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import RangeError, _check_count


class UpdateTemplate(NamedTuple):
    """The per-step low-rank correction columns, one entry per column.

    Column i is ``scales[i]`` times the regressor at lag ``lags[i]``, added
    (sign +1) or removed (sign -1).
    """

    lags: tuple[int, ...]
    scales: tuple[float, ...]
    signs: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.lags)


def _check_factor(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise RangeError(f"{name} must lie strictly in (0, 1), got {value!r}")


@dataclass(frozen=True)
class SegmentedProfile:
    """Segmented forgetting profile.

    Weights beta^j on lags 0..p, then a drop to lambda^(m+1) at lag p+1,
    then lambda^(m+j-p) out to lag w-1, zero beyond.  ``lam`` is also the
    per-step decay of the recursion.
    """

    beta: float
    lam: float
    m: int
    p: int
    w: int

    def __post_init__(self):
        _check_factor("beta", self.beta)
        _check_factor("lambda", self.lam)
        _check_count(self.m, 1, f"m must be a positive integer, got {self.m!r}")
        _check_count(self.p, 1, f"p must be a positive integer, got {self.p!r}")
        _check_count(self.w, 1, f"w must be a positive integer, got {self.w!r}")
        if self.beta == self.lam:
            raise RangeError("beta == lambda gives zero-scale fast-segment columns")
        lam_m = self.lam**self.m
        beta_p = self.beta**self.p
        if lam_m == beta_p:
            raise RangeError("lambda^m == beta^p gives a zero-scale drop column")
        if lam_m * self.lam >= beta_p:
            raise RangeError(
                f"drop condition violated: lambda^(m+1)={lam_m * self.lam:.6g} "
                f">= beta^p={beta_p:.6g}"
            )
        if self.p + 1 >= self.w:
            raise RangeError(f"fast segment does not fit the window: p+1={self.p + 1} "
                             f">= w={self.w}")


@dataclass(frozen=True)
class ExponentialProfile:
    """Exponential forgetting lambda^j; ``w=None`` selects infinite memory."""

    lam: float
    w: int | None = None

    def __post_init__(self):
        _check_factor("lambda", self.lam)
        if self.w is not None:
            _check_count(self.w, 1, f"w must be a positive integer or None, got {self.w!r}")


ForgettingProfile = Union[SegmentedProfile, ExponentialProfile]


def weights(profile: ForgettingProfile, count: int) -> np.ndarray:
    """Weights f(0..count-1), newest lag first; zero from the window edge on.

    f(j) is beta^j on lags 0..p and lambda^(m+j-p) after that for the
    segmented law, lambda^j for the exponential laws.
    """
    _check_count(count, 0, f"count must be >= 0, got {count!r}")
    j = np.arange(count, dtype=float)
    if isinstance(profile, ExponentialProfile):
        f = np.power(profile.lam, j)
    else:
        f = np.where(
            j <= profile.p,
            np.power(profile.beta, j),
            np.power(profile.lam, profile.m + j - profile.p),
        )
    if profile.w is not None:
        f[profile.w :] = 0.0
    return f


def update_template(profile: ForgettingProfile) -> UpdateTemplate:
    """Column lags, scales and signs realizing f(j+1) - lambda*f(j) at every lag.

    Lag 0 carries the new sample (scale 1, sign +1).  For the segmented
    profile, lags 1..p adjust the fast segment, lag p+1 realizes the drop and
    lag w removes the sample leaving the window; the slow tail telescopes and
    needs no columns.  The finite exponential profile needs only the lag-0
    addition and the lag-w removal; the infinite one only the addition.
    """
    if isinstance(profile, ExponentialProfile):
        if profile.w is None:
            return UpdateTemplate((0,), (1.0,), (1,))
        return UpdateTemplate(
            (0, profile.w), (1.0, math.sqrt(profile.lam**profile.w)), (1, -1)
        )

    beta, lam, m, p, w = profile.beta, profile.lam, profile.m, profile.p, profile.w
    sign_fast = 1 if beta > lam else -1
    lam_m = lam**m
    beta_p = beta**p
    sign_drop = 1 if lam_m > beta_p else -1
    return UpdateTemplate(
        lags=(*range(p + 2), w),
        scales=(
            1.0,
            *(math.sqrt(beta ** (j - 1) * abs(beta - lam)) for j in range(1, p + 1)),
            math.sqrt(abs(lam_m - beta_p) * lam),
            math.sqrt(lam ** (m + w - p)),
        ),
        signs=(1, *(sign_fast,) * p, sign_drop, -1),
    )
