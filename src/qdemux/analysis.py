"""Fringe visibility estimation, CAR from histograms, and report tables.

The fringe model ``C(phi) = A (1 + V cos(phi + phi0))`` is exactly linear
in the basis ``(1, cos phi, sin phi)``, so the weighted least-squares fit
is closed form (normal equations) and deterministic.  Uncertainties come
from propagating the per-point Poisson variance through the fit; the
classic (max-min)/(max+min) estimator is kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .events import CoincidenceHistogram, WindowCounts, central_window_counts

BELL_VISIBILITY_BOUND = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class FringePoint:
    """One fringe-scan point: phase setting, counts, background estimate."""

    phase_rad: float
    center_counts: float
    background_counts: float = 0.0
    temperature_k: float | None = None

    def __post_init__(self) -> None:
        if self.center_counts < 0 or self.background_counts < 0:
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class FringeScan:
    points: tuple[FringePoint, ...]

    def phases(self) -> np.ndarray:
        return np.array([p.phase_rad for p in self.points])

    def counts(self) -> np.ndarray:
        return np.array([p.center_counts for p in self.points], dtype=float)

    def backgrounds(self) -> np.ndarray:
        return np.array([p.background_counts for p in self.points], dtype=float)


@dataclass(frozen=True)
class VisibilityResult:
    """Fitted fringe visibilities with propagated Poisson errors.

    ``v_raw`` fits the counts as recorded; ``v_net`` fits them after
    per-point background subtraction.  ``bell_violating`` tests the net
    value against the 1/sqrt(2) two-photon interference bound, demanding
    the fitted value minus one standard error to clear it.
    """

    v_raw: float
    v_raw_sigma: float
    v_net: float
    v_net_sigma: float
    bell_violating: bool
    fit_phase_offset_rad: float
    fit_offset: float
    v_minmax: float
    v_minmax_sigma: float
    estimators_disagree: bool
    negative_net_points: int


def visibility_minmax(n_max: float, n_min: float) -> tuple[float, float]:
    """Closed-form visibility from the extreme fringe points, with Poisson error.

    V = (N+ - N-)/(N+ + N-); the error propagates sigma_N = sqrt(N)
    through both counts:

        sigma_V = 2 sqrt(N+^2 N- + N-^2 N+) / (N+ + N-)^2
    """
    if n_max < 0 or n_min < 0:
        raise ValueError("counts must be nonnegative")
    total = n_max + n_min
    if total == 0:
        return 0.0, float("inf")
    v = (n_max - n_min) / total
    sigma = 2.0 * np.sqrt(n_max**2 * n_min + n_min**2 * n_max) / total**2
    return float(v), float(sigma)


def _cosine_fit(phases: np.ndarray, counts: np.ndarray,
                variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares of counts on (1, cos, sin); returns (beta, cov)."""
    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    w = 1.0 / variances
    xtw = x.T * w
    cov = np.linalg.inv(xtw @ x)
    beta = cov @ (xtw @ counts)
    return beta, cov


def _visibility_from_beta(beta: np.ndarray, cov: np.ndarray) -> tuple[float, float, float]:
    """Map (offset, cos, sin) coefficients to (V, sigma_V, phi0)."""
    a0, b1, b2 = beta
    amp = float(np.hypot(b1, b2))
    if a0 <= 0:
        return 0.0, float("inf"), 0.0
    v = amp / a0
    phi0 = float(np.arctan2(-b2, b1))
    if amp == 0.0:
        # flat fringe: direction of the amplitude is undefined, bound the
        # error by the worst quadrature component
        sigma = float(np.sqrt(max(cov[1, 1], cov[2, 2])) / a0)
        return 0.0, sigma, 0.0
    grad = np.array([-amp / a0**2, b1 / (amp * a0), b2 / (amp * a0)])
    sigma = float(np.sqrt(grad @ cov @ grad))
    return float(v), sigma, phi0


def fit_visibility(scan: FringeScan) -> VisibilityResult:
    """Least-squares fringe fit, raw and background-subtracted.

    Requires at least 4 points spanning more than pi of phase.  The net
    fit takes the background-subtracted counts as they are, negative ones
    included, since a floor at zero would bias ``v_net`` low near V = 1;
    ``negative_net_points`` counts the negative ones.
    """
    if len(scan.points) < 4:
        raise ValueError(f"need at least 4 fringe points, got {len(scan.points)}")
    phases = scan.phases()
    if phases.max() - phases.min() <= np.pi:
        raise ValueError("fringe scan must span more than pi of phase")
    counts = scan.counts()
    bg = scan.backgrounds()

    var_raw = np.maximum(counts, 1.0)
    beta_raw, cov_raw = _cosine_fit(phases, counts, var_raw)
    v_raw, s_raw, phi0 = _visibility_from_beta(beta_raw, cov_raw)

    net = counts - bg
    var_net = np.maximum(counts, 1.0) + np.maximum(bg, 0.0)
    beta_net, cov_net = _cosine_fit(phases, net, var_net)
    v_net, s_net, _ = _visibility_from_beta(beta_net, cov_net)

    v_mm, s_mm = visibility_minmax(float(counts.max()), float(counts.min()))
    disagree = abs(v_mm - v_raw) > max(s_raw, s_mm)
    return VisibilityResult(
        v_raw=v_raw,
        v_raw_sigma=s_raw,
        v_net=v_net,
        v_net_sigma=s_net,
        bell_violating=bool(v_net - s_net > BELL_VISIBILITY_BOUND),
        fit_phase_offset_rad=phi0,
        fit_offset=float(beta_raw[0]),
        v_minmax=v_mm,
        v_minmax_sigma=s_mm,
        estimators_disagree=bool(disagree),
        negative_net_points=int(np.sum(net < 0)),
    )


def fitted_curve(result: VisibilityResult, phases: np.ndarray) -> np.ndarray:
    """Evaluate the fitted raw fringe model at the given phases."""
    return result.fit_offset * (
        1.0 + result.v_raw * np.cos(phases + result.fit_phase_offset_rad)
    )


@dataclass(frozen=True)
class CarEstimate:
    """Coincidence-to-accidental ratio measured from one histogram."""

    car: float
    sigma: float
    center_counts: int
    background_per_window: float
    lower_bound: bool


def car_from_windows(win: WindowCounts) -> CarEstimate:
    """CAR = central-window counts over the background per equal window.

    With zero background counts the result is a flagged lower bound
    computed against one background count.
    """
    if win.background_raw == 0:
        return CarEstimate(
            car=win.center / win.background_scale,
            sigma=float("inf"),
            center_counts=win.center,
            background_per_window=0.0,
            lower_bound=True,
        )
    bg = win.background_per_window
    car = win.center / bg
    sigma = car * np.sqrt(1.0 / max(win.center, 1) + 1.0 / win.background_raw)
    return CarEstimate(car=float(car), sigma=float(sigma), center_counts=win.center,
                       background_per_window=float(bg), lower_bound=False)


def car_from_histogram(h: CoincidenceHistogram, window_ns: float,
                       background_start_ns: float | None = None) -> CarEstimate:
    """``car_from_windows`` of ``central_window_counts(h, window_ns)``.

    The window and background region, and what they refuse, are
    ``central_window_counts``' with its default side-peak delay.
    """
    return car_from_windows(
        central_window_counts(h, window_ns, background_start_ns=background_start_ns))


# ---------------------------------------------------------------------------
# Table rendering


def _format_cell(result: VisibilityResult | None, net: bool) -> str:
    if result is None:
        return "--"
    v = result.v_net if net else result.v_raw
    s = result.v_net_sigma if net else result.v_raw_sigma
    mark = "*" if net and result.bell_violating else " "
    return f"({v * 100.0:.2f} +- {s * 100.0:.2f}) %{mark}"


def visibility_report(cells: dict[str, dict[str, VisibilityResult | None]]) -> str:
    """Render per-channel raw/net visibilities before and after conversion.

    ``cells`` maps a channel-pair label to ``{"before": result, "after":
    result}``; missing entries render as ``--``.  Net values that clear
    the Bell bound are starred.
    """
    header = (
        f"{'Channel pairs':<14}"
        f"{'Raw (before)':>22}{'Net (before)':>22}"
        f"{'Raw (after)':>22}{'Net (after)':>22}"
    )
    lines = [header, "-" * len(header)]
    notes = []
    for label in sorted(cells):
        row = cells[label]
        before = row.get("before")
        after = row.get("after")
        lines.append(
            f"{label:<14}"
            f"{_format_cell(before, net=False):>22}{_format_cell(before, net=True):>22}"
            f"{_format_cell(after, net=False):>22}{_format_cell(after, net=True):>22}"
        )
        for kind, res in (("before", before), ("after", after)):
            if res is None:
                notes.append(f"note: {label} {kind} scan missing")
    lines.append(f"(* net visibility exceeds the {BELL_VISIBILITY_BOUND:.4f} Bell bound)")
    lines.extend(notes)
    return "\n".join(lines)


def visibility_result_to_dict(result: VisibilityResult) -> dict:
    """The result's fields but ``fit_offset``, which only ``fitted_curve`` reads."""
    out = asdict(result)
    del out["fit_offset"]
    return out
