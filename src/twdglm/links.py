"""Link functions for the mean and dispersion models.

A link g maps the parameter to the linear-predictor scale; fitting works
with the inverse map h = g^{-1}, whose derivatives the likelihood's
closed forms fold in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


class LinkKind(enum.Enum):
    LOG = "log"
    IDENTITY = "identity"
    SQRT = "sqrt"
    INVERSE = "inverse"
    INVERSE_SQUARED = "inverse-squared"

    @classmethod
    def from_name(cls, name: str) -> "LinkKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ConfigError(f"unknown link {name!r}; expected one of "
                          f"{[k.value for k in cls]}")


@dataclass(frozen=True)
class LinkPair:
    """Mean and dispersion links used by one model. The dispersion link
    must be log or identity."""

    mean: LinkKind
    disp: LinkKind

    def __post_init__(self):
        if self.disp not in (LinkKind.LOG, LinkKind.IDENTITY):
            raise ConfigError("dispersion link must be log or identity, "
                              f"got {self.disp.value}")

    @classmethod
    def of(cls, mean: LinkKind | str, disp: LinkKind | str = LinkKind.LOG
           ) -> "LinkPair":
        if isinstance(mean, str):
            mean = LinkKind.from_name(mean)
        if isinstance(disp, str):
            disp = LinkKind.from_name(disp)
        return cls(mean, disp)


def _check_domain(kind: LinkKind, t: np.ndarray) -> None:
    if kind is LinkKind.INVERSE and np.any(t == 0):
        raise DomainError("inverse link is singular at t = 0")
    if kind in (LinkKind.SQRT, LinkKind.INVERSE_SQUARED) and np.any(t <= 0):
        raise DomainError(f"{kind.value} link inverse requires t > 0")


def link_eval(kind: LinkKind, t):
    """Inverse map h(t) of the link."""
    ta, scalar = np.asarray(t, dtype=float), np.ndim(t) == 0
    _check_domain(kind, ta)
    if kind is LinkKind.LOG:
        out = np.exp(ta)
    elif kind is LinkKind.IDENTITY:
        out = ta
    elif kind is LinkKind.SQRT:
        out = ta ** 2
    elif kind is LinkKind.INVERSE:
        out = 1.0 / ta
    else:
        out = ta ** -0.5
    return float(out) if scalar else out


def link_apply(kind: LinkKind, value):
    """Forward map g(value) onto the predictor scale."""
    v, scalar = np.asarray(value, dtype=float), np.ndim(value) == 0
    if kind is LinkKind.LOG:
        if np.any(v <= 0):
            raise DomainError("log link requires positive values")
        out = np.log(v)
    elif kind is LinkKind.IDENTITY:
        out = v
    elif kind is LinkKind.SQRT:
        if np.any(v < 0):
            raise DomainError("sqrt link requires nonnegative values")
        out = np.sqrt(v)
    elif kind is LinkKind.INVERSE:
        if np.any(v == 0):
            raise DomainError("inverse link undefined at 0")
        out = 1.0 / v
    else:
        if np.any(v <= 0):
            raise DomainError("inverse-squared link requires positive values")
        out = v ** -2.0
    return float(out) if scalar else out
