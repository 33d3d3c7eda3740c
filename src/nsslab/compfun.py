"""Comparison functions: scalar class functions, classification evidence,
table-backed functions and inversion.

Class membership (positive definite, K, K-infinity, K on [0, d)) is treated
as a declared property plus numerical evidence on grids.  The library never
proves membership; :func:`classify_evidence` can only falsify a declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

PD = "PD"
K = "K"
KINF = "Kinf"
K_ON_0_D = "K_on_0_d"

_CLASSES = (PD, K, KINF, K_ON_0_D)


class DomainViolation(ValueError):
    """Argument outside the declared domain cap of a class function."""


class BracketError(ValueError):
    """Target value outside the invertible bracket supplied to invert()."""


@dataclass
class ScalarClassFunction:
    """A nonnegative scalar function with a declared comparison class.

    ``eval`` should accept numpy arrays elementwise (all functions shipped
    by this package do); ``d`` is the domain cap, finite only for the
    K-on-[0,d) class.
    """

    eval: Callable[[float], float]
    declared_class: str
    d: float = math.inf
    description: str = ""

    def __post_init__(self):
        if self.declared_class not in _CLASSES:
            raise ValueError(f"unknown class {self.declared_class!r}")
        if self.declared_class != K_ON_0_D and not math.isinf(self.d):
            raise ValueError("finite domain cap is only meaningful for K_on_0_d")
        if self.d <= 0:
            raise ValueError("domain cap must be positive")
        v0 = float(self.eval(0.0))
        if abs(v0) > 1e-12:
            raise ValueError(f"class function must vanish at 0, got f(0)={v0!r}")

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise DomainViolation(
                f"negative argument for {self.description or 'class function'}"
            )
        if np.any(arr >= self.d):
            raise DomainViolation(
                f"argument >= domain cap d={self.d} for {self.description or 'class function'}"
            )
        out = self.eval(arr)
        if np.ndim(r) == 0:
            return float(out)
        return np.asarray(out, dtype=float)


@dataclass
class ClassEvidenceReport:
    monotonicity_violations: list = field(default_factory=list)
    sign_violations: list = field(default_factory=list)
    unbounded_flag: bool = False
    consistent: bool = True


def classify_evidence(f: ScalarClassFunction,
                      grid: Sequence[float]) -> ClassEvidenceReport:
    """Collect falsification evidence for the declared class of ``f`` on a grid.

    The grid must be sorted ascending, start at 0, and stay below the domain
    cap.  For a declared Kinf function, an unboundedness heuristic flags the
    function when f(max grid) falls below 1e-3 * max grid.  The report is
    evidence, never a proof.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be sorted ascending and start at 0")
    if np.any(grid >= f.d):
        raise DomainViolation(f"grid point >= domain cap d={f.d}")

    values = np.array([float(f.eval(r)) for r in grid])
    report = ClassEvidenceReport()

    if abs(values[0]) > 1e-12:
        report.sign_violations.append((0.0, values[0]))
    if f.declared_class in (K, KINF, K_ON_0_D):
        for i in range(len(grid) - 1):
            if not values[i + 1] > values[i]:
                report.monotonicity_violations.append((grid[i], grid[i + 1]))
    if f.declared_class == PD:
        for r, v in zip(grid[1:], values[1:]):
            if not v > 0:
                report.sign_violations.append((r, v))
    if (f.declared_class == KINF and len(grid) > 1
            and values[-1] < 1e-3 * grid[-1]):
        report.unbounded_flag = True

    report.consistent = not (report.monotonicity_violations
                             or report.sign_violations
                             or report.unbounded_flag)
    return report


def invert(f: ScalarClassFunction, y: float, bracket_hi: float) -> float:
    """Invert a strictly increasing scalar function by bisection.

    Returns r with ``|f(r) - y| <= 1e-10 * max(1, |y|)``, within 200
    halvings.  The caller supplies the bracket; ``f`` must be strictly
    increasing on [0, bracket_hi].
    """
    if bracket_hi <= 0:
        raise ValueError("bracket_hi must be positive")
    y = float(y)
    f_lo = float(f.eval(0.0))
    f_hi = float(f.eval(bracket_hi))
    if not (f_lo <= y <= f_hi):
        raise BracketError(f"y={y} outside [f(0), f(hi)]=[{f_lo}, {f_hi}]")
    lo, hi = 0.0, float(bracket_hi)
    goal = 1e-10 * max(1.0, abs(y))
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(f.eval(mid))
        if abs(fm - y) <= goal:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    return mid


def _auto_bracket(f: ScalarClassFunction, y: float) -> float:
    hi = 1.0
    for _ in range(200):
        if hi >= f.d:
            hi = f.d * (1 - 1e-12)
        if float(f.eval(hi)) >= y:
            return hi
        if hi >= f.d * (1 - 1e-12):
            break
        hi *= 2.0
    raise BracketError(f"could not bracket y={y} for {f.description or 'function'}")


def invert_auto(f: ScalarClassFunction, y: float) -> float:
    """Invert with an automatically grown bracket (doubling from 1)."""
    if y <= 0:
        return 0.0
    return invert(f, y, _auto_bracket(f, y))


def from_table(h_vals: np.ndarray, f_vals: np.ndarray, declared_class: str = K,
               description: str = "") -> ScalarClassFunction:
    """Piecewise-linear class function from a table, clamped flat past the end."""
    h_vals = np.asarray(h_vals, dtype=float)
    f_vals = np.asarray(f_vals, dtype=float)
    return ScalarClassFunction(
        eval=lambda r: np.interp(np.asarray(r, dtype=float), h_vals, f_vals),
        declared_class=declared_class, description=description)
