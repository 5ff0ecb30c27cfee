"""Special functions used throughout the package.

Two building blocks live here: the two-parameter Mittag-Leffler function

    E_{g,b}(z) = sum_{r>=0} z^r / Gamma(g*r + b),      g > 0, b > 0,

and the generalized power-series form

    W(sigma) = sum_{s>=0} [prod_j Gamma(a_j + A_j*s)]
               / (s! * prod_j Gamma(b_j + B_j*s)) * sigma^s,

which is the series reduction of the Mellin-Barnes family.  Series terms
whose gamma factors sit on a pole are skipped and counted instead of
aborting the evaluation.

The Mittag-Leffler function has one engine, ``mittag_leffler_array``, with
two paths: its series in double precision, summed over the array where
that certifies itself, and otherwise contour inversion of its own
transform pair s^(g-b)/(s^g - z) with every pole taken as an exact
residue.  ``mittag_leffler`` is its 0-d case.  Extended precision
(mpmath) serves only the power series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, PoleError

__all__ = [
    "MLParams",
    "GuardedSeriesResult",
    "WrightSeriesSpec",
    "gamma_sign",
    "is_gamma_pole",
    "mittag_leffler",
    "mittag_leffler_array",
    "wright_series",
]

#: Distance below which an argument counts as sitting on a gamma pole.
POLE_TOL = 1e-12


def is_gamma_pole(z: complex | float) -> bool:
    """True when ``z`` lies within ``POLE_TOL`` of a nonpositive integer."""
    z = complex(z)
    if abs(z.imag) > POLE_TOL:
        return False
    nearest = round(z.real)
    return nearest <= 0 and abs(z.real - nearest) <= POLE_TOL


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real non-pole ``x`` (alternates below zero)."""
    if x > 0.0:
        return 1.0
    if is_gamma_pole(x):
        raise PoleError(f"gamma pole at x={x!r}")
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def _gamma_ratio_term(num, den, log_start: float = 0.0):
    """(sign, log |term|) of exp(log_start) prod Gamma(num) / prod Gamma(den),
    accumulated left to right from ``log_start``; None when an argument sits
    on a pole."""
    if any(is_gamma_pole(a) for a in (*num, *den)):
        return None
    sign, log_mag = 1.0, log_start
    for a in num:
        log_mag += math.lgamma(a)
        sign *= gamma_sign(a)
    for a in den:
        log_mag -= math.lgamma(a)
        sign *= gamma_sign(a)
    return sign, log_mag


@dataclass(frozen=True)
class MLParams:
    """Orders (gamma, beta) of the two-parameter Mittag-Leffler function."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"Mittag-Leffler orders must be positive, got "
                f"gamma={self.gamma}, beta={self.beta}"
            )


# The series takes _ML_ROWS elements at a time, each on the first width of
# _ML_WIDTHS that brings its stop or rejection.
_ML_WIDTHS = (40, 120, 600)
_ML_ROWS = 256


@lru_cache(maxsize=32)
def _ml_term_table(g: float, b: float) -> np.ndarray:
    """Rows lgamma(a) and the rounding factor 1 + a log max(a, 2) at a = g r + b."""
    args = [g * r + b for r in range(_ML_WIDTHS[-1])]
    table = np.array([[math.lgamma(a) for a in args],
                      [1.0 + a * math.log(max(a, 2.0)) for a in args]])
    table.flags.writeable = False
    return table


def _ml_series_rows(g: float, b: float, z: np.ndarray):
    """The double-precision series at each element of the nonzero 1-D array
    ``z``: (values, accepted where the relative error estimate is <= 1e-12).

    The estimate is the peak term's rounding, that of its gamma argument
    amplified by d(lgamma)/dx ~ log(x), plus the last term.  log|z| and
    arg z come from ``math``, and term magnitudes from libm's exp through
    numpy's complex exp (its float exp has CPU-dependent SIMD loops).  Real
    input sums real signs.
    """
    lgam, ulp = _ml_term_table(g, b)
    value, accepted = np.zeros_like(z), np.zeros(z.size, dtype=bool)
    log_abs = np.array([math.log(abs(v)) for v in z.tolist()])
    turn = (1j * np.array([cmath.phase(v) for v in z.tolist()]) if z.dtype.kind == "c"
            else np.where(z < 0.0, -1.0, 1.0))
    rows = np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for width in _ML_WIDTHS:
            if not rows.size:
                break
            r = np.arange(width)
            log_mag = log_abs[rows, None] * r - lgam[:width]
            mag = np.exp(log_mag + 0j).real
            rot = np.exp(turn[rows, None] * r) if z.dtype.kind == "c" else turn[rows, None] ** r
            sums = np.cumsum(mag * rot, axis=1)
            peaks = np.maximum.accumulate(mag, axis=1)
            drop = mag.copy()  # -(mag[r] - mag[r-1]), mag[-1] = 0; -0.0 where two tie
            drop[:, 1:] -= mag[:, :-1]
            np.negative(drop, out=drop)
            new = peaks > 0.0  # where the peak rises
            new[:, 1:] = peaks[:, 1:] > peaks[:, :-1]
            rnd = np.maximum.accumulate(np.where(new, mag * 1e-16 * ulp[:width], 0.0), axis=1)
            scale = np.maximum(np.abs(sums), 1e-300)
            past = (mag < peaks) & (r > 4)
            stop = past & (mag <= 1e-18 * scale)
            over = log_mag > 700.0
            # Past the peak the log-concave terms fall at least by the ratio of
            # the last two, so the rest sums to at most mag^2 / drop; 2 covers
            # the rounding of that bound.
            doomed = past & (drop > 0.0) & (rnd > 2e-12 * (scale + mag * mag / drop))
            event = stop | over | doomed
            done = event.any(axis=1)
            i = np.flatnonzero(done)
            j = event[i].argmax(axis=1)
            value[rows[i]] = sums[i, j]
            accepted[rows[i]] = (stop[i, j] & ~over[i, j]
                                 & ((rnd[i, j] + mag[i, j]) / scale[i, j] <= 1e-12))
            rows = rows[~done]
    return value, accepted


# Garrappa's contour aims at absolute error 1e-14: that keeps 1e-11 relative
# down to |E| ~ 1e-3, and every region for 1/2 <= gamma <= 2 within 200 nodes.
_ML_LOG_TOL = math.log(1e-14)
_LOG_EPS = math.log(np.finfo(float).eps)
_ML_MU_MAX = _ML_LOG_TOL - _LOG_EPS  # keeps the sum's round-off exp(mu) * eps below it


def _ml_poles(g: float, z: complex) -> list[complex]:
    """Roots of s^g = z with |arg s| <= pi: -|z|^(1/g) on the cut, z for g = 1."""
    if g == 1.0:
        return [z]
    r, theta = cmath.polar(z)
    r **= 1.0 / g
    ks = range(-math.ceil(g), math.ceil(g) + 1)
    angles = ((theta + 2.0 * math.pi * k) / g for k in ks)
    poles = [complex(-r, 0.0) if abs(a) >= math.pi * (1.0 - 1e-13) else cmath.rect(r, a)
             for a in angles if abs(a) <= math.pi * (1.0 + 1e-13)]
    return list(dict.fromkeys(poles))


@lru_cache(maxsize=32)
def _ml_axis_poles_known(g: float) -> bool:
    """Whether each z < 0 has the poles [z] (g = 1) or none: their angles
    (2k + 1) pi / g do not depend on |z|, so one probe at z = -1 decides."""
    return g == 1.0 or not _ml_poles(g, complex(-1.0))


def _ml_bounded_parabola(lo: float, hi: float, p: float):
    """Garrappa's (mu, h, N) between levels lo < hi, a pole; None if no room."""
    f_max = math.exp(_ML_MU_MAX)
    sq_lo = math.sqrt(lo)
    sq_hi = min(math.sqrt(hi), 2.0 * math.sqrt(_ML_MU_MAX) - sq_lo)
    if p < 1e-14:  # only the branch point s = 0 has strength 0, so sq_lo = 0
        f_bar = 1.01 * (2.0 - 1.01 / f_max)
        sb_lo, sb_hi = 0.0, 2.0 * sq_hi / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * (sq_lo + sq_hi) / (sq_hi - sq_lo) ** max(p, 1.0)
        if f_min >= f_max:
            return None
        f_bar = max(f_min, 1.5) * (2.0 - max(f_min, 1.5) / f_max)
        fp, fq, w = f_bar ** (-1.0 / p), 1.0 / f_bar, -hi / _ML_LOG_TOL
        den = 2.0 + w - (1.0 + w) * fp + fq
        sb_lo = ((2.0 + w + fq) * sq_lo + fp * sq_hi) / den
        sb_hi = (-(1.0 + w) * fq * sq_lo + (2.0 + w - (1.0 + w) * fp) * sq_hi) / den
    log_tol = _ML_LOG_TOL - math.log(f_bar)
    w = -sb_hi * sb_hi / log_tol
    mu = (((1.0 + w) * sb_lo + sb_hi) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sb_hi - sb_lo) / ((1.0 + w) * sb_lo + sb_hi)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _ml_unbounded_parabola(lo: float, p: float):
    """Garrappa's (mu, h, N) right of level ``lo``; None if no room."""
    sq_lo = math.sqrt(lo)
    sq_bar = math.sqrt(1.01 * lo if lo > 0.0 else 0.01)
    for _ in range(100):
        phi_bar = sq_bar * sq_bar
        ratio = _ML_LOG_TOL / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p < 1e-14 or 1.0 < ((sq_bar - sq_lo) / sq_mu) ** -p < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq_lo
    else:
        return None
    # Garrappa's mu at the 1e-14 target is at least 4 pi / 3 > _ML_MU_MAX, so
    # the parabola is always pulled back to mu = _ML_MU_MAX to bound the round-off.
    sq_bar = (0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu) + sq_lo
    if sq_bar ** 2 >= _ML_MU_MAX:
        return None
    w = math.sqrt(-_LOG_EPS / _ML_MU_MAX)
    u = sq_bar / math.sqrt(-_LOG_EPS)
    n = math.ceil(w * _ML_LOG_TOL / (2.0 * math.pi * (u * w - 1.0)))
    return _ML_MU_MAX, w / n, n


@lru_cache(maxsize=256)
def _ml_parabola(g: float, b: float, levels: tuple[float, ...]):
    """(mu, h, N) of the region between consecutive pole ``levels`` (and above
    the last) whose parabola needs the fewest nodes; N = inf if none has room."""
    found = []
    for j, lo in enumerate(levels):
        p = 1.0 if j else max(0.0, 2.0 * (b - g - 1.0))
        if lo < _ML_MU_MAX:
            found.append(_ml_bounded_parabola(lo, levels[j + 1], p)
                         if j + 1 < len(levels) else _ml_unbounded_parabola(lo, p))
    return min(filter(None, found), key=lambda c: c[2], default=(0.0, 0.0, math.inf))


def _ml_contour(g: float, b: float, z: np.ndarray) -> np.ndarray:
    """E_{g,b} at the nonzero complex 1-D array ``z`` as the inverse transform of
    s^(g-b)/(s^g - z) at t = 1; ``inf`` on positive overflow.

    Elements are batched by pole levels and count, which fix the parabola
    s(u) = mu (1 + iu)^2 and its 2N + 1 trapezoid nodes.  Every pole is
    subtracted from the integrand and added back as its residue
    s^(1-b) e^s / g: a pole left to the sum would leave the sum's absolute
    error floor on small results.

    Raises:
        ConvergenceError: as ``mittag_leffler_array``, for the first element.
    """
    out, zl = np.full(z.shape, complex(math.nan)), z.tolist()
    axis_poles = _ml_axis_poles_known(g)
    batches = {}
    for i, zi in enumerate(zl):
        if axis_poles and zi.imag == 0.0 and zi.real < 0.0:
            poles, levels = ([zi] if g == 1.0 else []), (0.0,)
        else:
            try:
                poles = _ml_poles(g, zi)
            except OverflowError:  # a pole's modulus |z|^(1/g) is beyond the double range
                continue
            levels = (0.0,) + tuple(sorted({v for s in poles
                                            if (v := (s.real + abs(s)) / 2.0) > 1e-15}))
        batches.setdefault((levels, len(poles)), []).append((i, poles))
    for (levels, k), members in batches.items():
        mu, h, n = _ml_parabola(g, b, levels)
        if n > 200:
            raise ConvergenceError(
                f"no Mittag-Leffler contour reaches 1e-14 within 200 nodes at "
                f"z={zl[members[0][0]]!r} with gamma={g}, beta={b}"
            )
        idx = [i for i, _ in members]
        sj = np.array([p for _, p in members]).reshape(len(idx), k)
        u = h * np.arange(-n, n + 1)
        s = mu * (1.0 + 1j * u) ** 2
        res = sj ** (1.0 - b) / g
        f = (s ** (g - b) / (s ** g - z[idx, None])
             - (res[:, None, :] / (s[:, None] - sj[:, None, :])).sum(axis=2))
        with np.errstate(over="ignore", invalid="ignore"):
            tail = np.sum(res * np.exp(sj), axis=1)
        out[idx] = h * mu / math.pi * np.sum(np.exp(s) * f * (1.0 + 1j * u), axis=1) + tail
    bad = ~np.isfinite(out)
    if bad.any():
        refused = np.flatnonzero(bad & ~((z.imag == 0.0) & (z.real > 0.0)))
        if refused.size:
            raise ConvergenceError(
                f"Mittag-Leffler contour leaves the double range at "
                f"z={zl[refused[0]]!r} with gamma={g}, beta={b}"
            )
        out[bad] = math.inf  # every series term is positive: a true overflow
    return out


def mittag_leffler(p: MLParams, z: complex | float) -> complex | float:
    """E_{gamma,beta}(z) at a scalar ``z``: ``mittag_leffler_array`` at the 0-d
    array of ``z``, a float for real ``z`` and for complex ``z`` with a zero
    imaginary part, else a complex.

    Raises:
        DomainError: when ``z`` has a NaN part.
        ConvergenceError: as ``mittag_leffler_array``.
    """
    want_complex = isinstance(z, complex) and z.imag != 0.0
    val = mittag_leffler_array(p, np.array(z))[()]
    return complex(val) if want_complex else float(val.real)


def mittag_leffler_array(p: MLParams, z: np.ndarray) -> np.ndarray:
    """Two-parameter Mittag-Leffler function E_{gamma,beta} at each element of
    the array ``z``, any shape.

    At z = 0 the value is 1/Gamma(beta).  The double-precision series runs
    on |z| <= 5 and on the positive real axis, wherever its own error
    estimate meets 1e-12 relative (the estimate underestimates cancellation
    up to sixfold near z = -4).  Everywhere else the transform pair
    s^(gamma-beta)/(s^gamma - z) is inverted on a pole-aware parabolic
    contour (Garrappa, SIAM J. Numer. Anal. 53(3), 2015; Weideman &
    Trefethen, Math. Comp. 76, 2007), in one broadcast per parabola.
    Accuracy: 1e-11 relative, or 1e-14 absolute where |E| < 1e-3, for
    1/2 <= gamma <= 2, 0.2 <= beta <= 2 and |z| <= 100.  On the positive
    real axis a value beyond the double range is ``inf``.  Each element's
    bits do not depend on the rest of the array.  Complex input gives
    complex values, real where z is.

    Raises:
        DomainError: when an element has a NaN part, naming the first index.
        ConvergenceError: when no contour reaches its target within 200
            nodes (seen only for gamma > 2), or when a value overflows off
            the positive real axis; the message names the element.
    """
    g, b = p.gamma, p.beta
    z = np.asarray(z)
    want_complex = z.dtype.kind == "c"
    flat = z.astype(complex if want_complex else float).ravel()
    if np.isnan(flat).any():
        at = tuple(int(k) for k in np.unravel_index(np.isnan(flat).argmax(), z.shape))
        raise DomainError(f"Mittag-Leffler argument is NaN at index {at}")
    out = np.full_like(flat, 1.0 / math.gamma(b))
    for lo in range(0, flat.size, _ML_ROWS):
        zs, vals = flat[lo:lo + _ML_ROWS], out[lo:lo + _ML_ROWS]
        series = np.flatnonzero([v != 0 and (abs(v) <= 5.0 or v.imag == 0.0 and v.real > 0.0)
                                 for v in zs.tolist()])
        val, ok = _ml_series_rows(g, b, zs[series])
        vals[series[ok]] = val[ok]
        rest = zs != 0
        rest[series[ok]] = False
        if rest.any():
            val = _ml_contour(g, b, zs[rest].astype(complex))
            vals[rest] = val if want_complex else val.real
    if want_complex:
        out.imag[flat.imag == 0.0] = 0.0
    return out.reshape(z.shape)


@dataclass(frozen=True)
class WrightSeriesSpec:
    """Parameter rows of the generalized power series.

    ``upper`` holds numerator pairs (a_j, A_j); ``lower`` holds denominator
    pairs (b_j, B_j).  All scale factors A_j, B_j must be nonnegative.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        upper = tuple((float(a), float(sa)) for a, sa in self.upper)
        lower = tuple((float(b), float(sb)) for b, sb in self.lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        for _, scale in self.upper + self.lower:
            if scale < 0.0:
                raise ValueError("series scale factors must be nonnegative")


@dataclass
class GuardedSeriesResult:
    """Sum over the non-guarded terms of a series plus pole-guard diagnostics;
    ``last_term_magnitude`` is set by ``wright_series`` only."""

    value: complex | float
    guarded_count: int
    terms_used: int
    last_term_magnitude: float = 0.0


def wright_series(
    spec: WrightSeriesSpec,
    sigma: complex | float,
    max_terms: int = 200,
) -> GuardedSeriesResult:
    """Sum the generalized gamma-ratio power series at ``sigma``.

    Terms are accumulated until the running term magnitude drops below
    1e-16 of the partial sum or ``max_terms`` is reached.  Any term whose
    gamma factors (numerator or denominator) sit on a pole is skipped and
    counted in ``guarded_count``: a denominator pole makes the term an
    exact zero, a numerator pole leaves it undefined, and neither aborts
    the evaluation.  Alternating sums whose cancellation defeats double
    precision are re-summed in extended precision.

    Raises:
        DivergenceError: when term magnitudes grow for 10 consecutive
            evaluated indices and the scale factors permit divergence
            (sum A >= sum B + 1; below that the series is entire and a
            long growth phase is normal).
        ConvergenceError: when no term of the first ``max_terms`` drops
            below 1e-16 of the partial sum, or when the last term summed is
            not below 1e-16 of the value re-summed in extended precision.
    """
    sc = complex(sigma)
    log_abs_sigma = math.log(abs(sc)) if sc != 0 else -math.inf
    phase = cmath.phase(sc)

    # Ratio test on the gamma scale factors: with sum(A) < sum(B) + 1 the
    # series is entire, so a long pre-peak growth phase (small scale
    # factors peak late) must not trip the divergence heuristic.
    delta = sum(sa for _, sa in spec.upper) - sum(sb for _, sb in spec.lower) - 1.0
    may_diverge = delta > -1e-12

    total = 0.0 + 0.0j
    guarded = 0
    used = 0
    used_indices: list[int] = []
    growth_run = 0
    prev_mag: float | None = None
    mag = 0.0
    max_mag = 0.0

    for s in range(max_terms):
        term = _gamma_ratio_term([a + sa * s for a, sa in spec.upper],
                                 [s + 1.0] + [b + sb * s for b, sb in spec.lower],
                                 s * log_abs_sigma if s > 0 else 0.0)
        if term is None:
            guarded += 1
            continue
        if sc == 0 and s > 0:
            break
        sign, log_mag = term
        if log_mag > 700.0:
            raise DivergenceError(
                f"series term overflow at index {s} for sigma={sigma!r}"
            )
        mag = math.exp(log_mag)
        total += sign * mag * cmath.exp(1j * phase * s)
        used += 1
        used_indices.append(s)
        max_mag = max(max_mag, mag)

        if may_diverge and prev_mag is not None:
            growth_run = growth_run + 1 if mag > prev_mag else 0
            if growth_run >= 10:
                raise DivergenceError(
                    f"term magnitudes grew for 10 consecutive indices "
                    f"(index {s}) for sigma={sigma!r}"
                )
        prev_mag = mag
        if s > 2 and mag <= 1e-16 * max(abs(total), 1e-300):
            break
    else:
        if used:
            raise ConvergenceError(f"series unfinished after {max_terms} terms "
                                   f"at sigma={sigma!r}")

    # Cancellation estimate: largest term over result with the gamma
    # argument rounding amplification; escalate to extended precision when
    # double precision cannot deliver ~1e-12 of the sum.  The stop test
    # compared terms with the spoiled double sum, so it is checked again
    # against the re-summed value.
    scale = max(abs(total), 1e-300)
    if used and max_mag * 2e-15 * max(1.0, math.log(2.0 + max_mag)) > 1e-12 * scale:
        total = _wright_sum_mp(spec, sc, used_indices, max_mag, scale)
        if mag > 1e-16 * abs(total):
            raise ConvergenceError(f"cancellation stopped the series early at "
                                   f"sigma={sigma!r}: last term {mag:.3e}, sum "
                                   f"{abs(total):.3e}")

    return GuardedSeriesResult(
        value=total,
        guarded_count=guarded,
        terms_used=used,
        last_term_magnitude=mag,
    )


def _wright_sum_mp(
    spec: WrightSeriesSpec,
    sigma: complex,
    indices: list[int],
    max_mag: float,
    scale: float,
) -> complex:
    """Re-sum the non-guarded terms in extended precision."""
    import mpmath  # its only user: importing the package does not load it
    dps = 30 + int(max(0.0, math.log10(max_mag / scale)))
    with mpmath.workdps(dps):
        ms = mpmath.mpmathify(sigma)
        upper = [(mpmath.mpf(a), mpmath.mpf(sa)) for a, sa in spec.upper]
        lower = [(mpmath.mpf(b), mpmath.mpf(sb)) for b, sb in spec.lower]
        total = mpmath.mpc(0)
        for s in indices:
            term = ms ** s * mpmath.rgamma(s + 1)
            for a, sa in upper:
                term *= mpmath.gamma(a + sa * s)
            for b, sb in lower:
                term *= mpmath.rgamma(b + sb * s)
            total += term
        return complex(total)
