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

from .errors import (
    DegenerateColumnError,
    DropConditionError,
    RangeError,
    WindowError,
)


class TemplateEntry(NamedTuple):
    lag: int
    scale: float
    sign: int


@dataclass(frozen=True)
class UpdateTemplate:
    """Lags, scales and signs of the per-step low-rank correction columns."""

    entries: tuple[TemplateEntry, ...]

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def lags(self) -> tuple[int, ...]:
        return tuple(e.lag for e in self.entries)

    @property
    def scales(self) -> tuple[float, ...]:
        return tuple(e.scale for e in self.entries)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(e.sign for e in self.entries)


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
        if self.m < 1:
            raise RangeError(f"m must be a positive integer, got {self.m!r}")
        if self.p < 1:
            raise RangeError(f"p must be a positive integer, got {self.p!r}")
        if self.w < 1:
            raise RangeError(f"w must be a positive integer, got {self.w!r}")
        if self.beta == self.lam:
            raise DegenerateColumnError(
                "beta == lambda gives zero-scale fast-segment columns"
            )
        lam_m = self.lam**self.m
        beta_p = self.beta**self.p
        if lam_m == beta_p:
            raise DegenerateColumnError(
                "lambda^m == beta^p gives a zero-scale drop column"
            )
        if lam_m * self.lam >= beta_p:
            raise DropConditionError(
                f"drop condition violated: lambda^(m+1)={lam_m * self.lam:.6g} "
                f">= beta^p={beta_p:.6g}"
            )
        if self.p + 1 >= self.w:
            raise WindowError(
                f"fast segment does not fit the window: p+1={self.p + 1} >= w={self.w}"
            )

    @property
    def decay(self) -> float:
        return self.lam


@dataclass(frozen=True)
class ExponentialProfile:
    """Exponential forgetting lambda^j; ``w=None`` selects infinite memory."""

    lam: float
    w: int | None = None

    def __post_init__(self):
        _check_factor("lambda", self.lam)
        if self.w is not None and self.w < 1:
            raise RangeError(f"w must be a positive integer or None, got {self.w!r}")

    @property
    def decay(self) -> float:
        return self.lam

    @property
    def unbounded(self) -> bool:
        return self.w is None


ForgettingProfile = Union[SegmentedProfile, ExponentialProfile]


def make_segmented(beta: float, lam: float, m: int, p: int, w: int) -> SegmentedProfile:
    """Validated segmented profile; see SegmentedProfile for the invariants."""
    return SegmentedProfile(beta=beta, lam=lam, m=m, p=p, w=w)


def weights(profile: ForgettingProfile, count: int) -> np.ndarray:
    """Weights f(0..count-1), newest lag first; zero from the window edge on.

    f(j) is beta^j on lags 0..p and lambda^(m+j-p) after that for the
    segmented law, lambda^j for the exponential laws.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
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
    """Column lags, scales and signs realizing f(j+1) - decay*f(j) at every lag.

    Lag 0 carries the new sample (scale 1, sign +1).  For the segmented
    profile, lags 1..p adjust the fast segment, lag p+1 realizes the drop and
    lag w removes the sample leaving the window; the slow tail telescopes and
    needs no columns.  The finite exponential profile needs only the lag-0
    addition and the lag-w removal; the infinite one only the addition.
    """
    if isinstance(profile, ExponentialProfile):
        entries = [TemplateEntry(0, 1.0, +1)]
        if profile.w is not None:
            entries.append(
                TemplateEntry(profile.w, math.sqrt(profile.lam**profile.w), -1)
            )
        return UpdateTemplate(entries=tuple(entries))

    beta, lam, m, p, w = profile.beta, profile.lam, profile.m, profile.p, profile.w
    entries = [TemplateEntry(0, 1.0, +1)]
    sign_fast = 1 if beta > lam else -1
    for j in range(1, p + 1):
        entries.append(
            TemplateEntry(j, math.sqrt(beta ** (j - 1) * abs(beta - lam)), sign_fast)
        )
    lam_m = lam**m
    beta_p = beta**p
    sign_drop = 1 if lam_m > beta_p else -1
    entries.append(TemplateEntry(p + 1, math.sqrt(abs(lam_m - beta_p) * lam), sign_drop))
    entries.append(TemplateEntry(w, math.sqrt(lam ** (m + w - p)), -1))
    return UpdateTemplate(entries=tuple(entries))


def drop_ratio(profile: SegmentedProfile) -> float:
    """f(p+1)/f(p) = lambda^(m+1)/beta^p, in (0, 1) by construction."""
    return profile.lam ** (profile.m + 1) / profile.beta**profile.p
