"""Camera counts to temperature and back, with emissivity and window fitting.

The band-radiance model is the Sakuma-Hattori Planckian form
S(T) = C / (exp(c2 / (A*T_kelvin + B)) - 1), invertible in closed form.
The measurement equation adds reflected-ambient and window self-emission
terms so that counts below the non-object background are a detectable error
rather than a silent wrong temperature.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .errors import BelowFloorError, IllConditionedError, ParameterError

C2_UM_K = 14388.0  # second radiation constant, um*K
KELVIN_OFFSET = 273.15


@dataclass(frozen=True)
class RadianceModel:
    """Band-radiance parameters. Defaults target a long-wave camera band."""

    a_um: float = 9.5
    b_um_k: float = 0.0
    c_counts: float = 60000.0

    def __post_init__(self):
        if self.a_um <= 0 or self.c_counts <= 0:
            raise ParameterError("model parameters A and C must be positive")

    def signal(self, t_c):
        """Blackbody band signal in counts at temperature t_c (degC)."""
        t = np.add(t_c, KELVIN_OFFSET, dtype=np.float64)
        if (t <= 0).any():
            raise ParameterError("temperature at or below absolute zero")
        out = t if t.ndim else None  # an array is worked in place; a scalar is immutable
        x = np.divide(C2_UM_K, np.add(np.multiply(t, self.a_um, out=out), self.b_um_k, out=out), out=out)
        return np.divide(self.c_counts, np.expm1(x, out=out), out=out)

    def temperature(self, signal):
        """Inverse of :meth:`signal`; signal must be strictly positive."""
        s = np.asarray(signal, dtype=np.float64)
        if (s <= 0).any():
            raise ParameterError("signal must be positive to invert")
        x = np.divide(self.c_counts, s)
        out = x if x.ndim else None
        x = np.divide(C2_UM_K, np.log1p(x, out=out), out=out)
        x = np.divide(np.subtract(x, self.b_um_k, out=out), self.a_um, out=out)
        return np.subtract(x, KELVIN_OFFSET, out=out)


@dataclass(frozen=True)
class CalibrationProfile:
    emissivity_powder: float = 0.63
    emissivity_printed: float = 0.21
    window_transmission: float = 0.75
    reflected_temperature_c: float = 25.0
    model: RadianceModel = field(default_factory=RadianceModel)

    def __post_init__(self):
        for name in ("emissivity_powder", "emissivity_printed", "window_transmission"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ParameterError(f"{name} must be in (0, 1], got {v}")


def _validate_eps(eps) -> None:
    if np.isscalar(eps):
        ok = 0.0 < eps <= 1.0
    else:
        e = np.asarray(eps, dtype=np.float64)
        ok = np.all((e > 0.0) & (e <= 1.0))
    if not ok:  # a NaN fails both comparisons
        raise ParameterError("emissivity must be in (0, 1]")


def background_counts(eps, profile: CalibrationProfile):
    """Non-object term: reflected ambient through the window plus window glow."""
    tau = profile.window_transmission
    s_refl = profile.model.signal(profile.reflected_temperature_c)
    s_win = s_refl  # window assumed at the reflected/ambient temperature
    b = np.subtract(1.0, eps, dtype=np.float64)
    out = b if b.ndim else None  # an array is worked in place; a scalar is immutable
    b = np.multiply(np.multiply(b, tau, out=out), s_refl, out=out)
    return np.add(b, (1.0 - tau) * s_win, out=out)


def forward_counts(t_obj_c, eps, profile: CalibrationProfile):
    """Counts seen by the camera for an object at t_obj_c with emissivity eps."""
    _validate_eps(eps)
    counts = np.multiply(profile.window_transmission, eps, dtype=np.float64) * profile.model.signal(t_obj_c)
    counts += background_counts(eps, profile)  # broadcasts to no more than counts' shape
    return float(counts) if np.isscalar(t_obj_c) and np.isscalar(eps) else counts


def invert_counts(counts: float, eps: float, profile: CalibrationProfile) -> float:
    """Unique object temperature with forward_counts(T) = counts.

    Raises BelowFloorError when counts do not exceed the background term,
    i.e. the object would be colder than its surroundings.
    """
    t, valid = invert_counts_array(counts, eps, profile)
    if not valid:
        floor = float(background_counts(eps, profile))
        raise BelowFloorError(
            f"counts {counts:.3f} at or below background floor {floor:.3f}"
        )
    return float(t)


def invert_counts_array(counts, eps, profile: CalibrationProfile):
    """Vectorized inversion; returns (temperatures, valid). Below-floor pixels
    are NaN with valid=False instead of raising."""
    _validate_eps(eps)
    c = np.asarray(counts, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    floor = background_counts(e, profile)
    valid = c > floor
    s_obj = np.where(valid, (c - floor) / (profile.window_transmission * e), 1.0)
    t = profile.model.temperature(s_obj)
    t = np.where(valid, t, np.nan)
    return t, valid


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
FIT_TOL = 1e-4  # width of the golden-section interval at which a fit stops
MIN_SPAN_C = 100.0  # degC, the least spread of a fit's reference temperatures


def _golden_min(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > FIT_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _check_samples(temps) -> None:
    t = np.asarray(temps, dtype=np.float64)
    if t.size < 2:
        raise ParameterError("need at least 2 calibration samples")
    if not np.isfinite(t).all():
        raise ParameterError("non-finite reference temperature in samples")
    if float(t.max() - t.min()) < 1e-9:
        raise IllConditionedError("all samples at one temperature; objective is flat")
    if float(t.max() - t.min()) < MIN_SPAN_C:
        raise ParameterError(
            f"reference temperatures must span at least {MIN_SPAN_C} degC"
        )


def _squared_error(temps, valid, reference) -> float:
    """Sum of squared temperature errors, 1e12 for each below-floor sample.

    The terms are added one after another in sample order: a pairwise or
    compensated sum rounds differently and can flip a golden-section step.
    """
    sq = np.where(valid, (temps - reference) ** 2, 1e12)
    return float(np.cumsum(sq)[-1])


def fit_emissivity(samples, profile: CalibrationProfile) -> tuple[float, float]:
    """Fit the emissivity minimizing squared temperature error.

    samples: iterable of (counts, reference_temperature_c). Returns
    (emissivity, residual standard deviation in degC). Raises BelowFloorError
    naming the first sample whose counts are at or below the background floor
    at the fitted emissivity.
    """
    counts = np.asarray([s[0] for s in samples], dtype=np.float64)
    temps = np.asarray([s[1] for s in samples], dtype=np.float64)
    if not np.isfinite(counts).all():
        raise ParameterError("non-finite counts in samples")
    _check_samples(temps)

    def objective(eps: float) -> float:
        return _squared_error(*invert_counts_array(counts, eps, profile), temps)

    eps = min(1.0, _golden_min(objective, 1e-3, 1.0))
    fitted, valid = invert_counts_array(counts, eps, profile)
    if not valid.all():
        i = int(np.argmin(valid))
        floor = float(background_counts(eps, profile))
        raise BelowFloorError(
            f"sample {i + 1} (counts {counts[i]:.3f}, reference {temps[i]:g} degC) "
            f"is at or below background floor {floor:.3f} "
            f"at the fitted emissivity {eps:.4f}"
        )
    return eps, float(np.std(fitted - temps, ddof=1))


def fit_window_transmission(paired, profile: CalibrationProfile) -> float:
    """Fit window transmission from with/without-glass count pairs.

    paired: iterable of (counts_with_glass, counts_without_glass,
    reference_temperature_c). Minimizes squared disagreement between the
    temperature inverted with the glass term and the glass-free inversion.
    """
    with_g = np.asarray([p[0] for p in paired], dtype=np.float64)
    without_g = np.asarray([p[1] for p in paired], dtype=np.float64)
    temps = np.asarray([p[2] for p in paired], dtype=np.float64)
    if not (np.isfinite(with_g).all() and np.isfinite(without_g).all()):
        raise ParameterError("non-finite counts in pairs")
    _check_samples(temps)

    eps = profile.emissivity_powder
    bare = replace(profile, window_transmission=1.0)
    t_bare, valid = invert_counts_array(without_g, eps, bare)
    if not valid.all():
        raise ParameterError("glass-free counts below background floor")

    def objective(tau: float) -> float:
        prof = replace(profile, window_transmission=tau)
        return _squared_error(*invert_counts_array(with_g, eps, prof), t_bare)

    return min(1.0, _golden_min(objective, 0.05, 1.0))


_PROFILE_SECTION = "profile"
# each key of a profile file and the CalibrationProfile field it holds; the
# model_* keys hold fields of its RadianceModel
_PROFILE_KEYS = {
    "emissivity_powder": "emissivity_powder",
    "emissivity_printed": "emissivity_printed",
    "window_transmission": "window_transmission",
    "reflected_temperature_c": "reflected_temperature_c",
    "model_a": "model.a_um",
    "model_b": "model.b_um_k",
    "model_c": "model.c_counts",
}


def profile_to_text(profile: CalibrationProfile) -> str:
    """Serialize to a UTF-8 key-value config section."""
    cp = configparser.ConfigParser()
    cp[_PROFILE_SECTION] = {key: repr(attrgetter(name)(profile)) for key, name in _PROFILE_KEYS.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def profile_from_text(text: str) -> CalibrationProfile:
    """Parse `profile_to_text` output; a key it leaves out keeps its default."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section(_PROFILE_SECTION):
        raise ParameterError("missing [profile] section")
    sec = cp[_PROFILE_SECTION]
    values: dict = {"model": {}}
    for key in sec:
        if key not in _PROFILE_KEYS:
            raise ParameterError(f"unknown key {key!r} in section [{_PROFILE_SECTION}]")
        *part, name = _PROFILE_KEYS[key].split(".")
        (values["model"] if part else values)[name] = sec.getfloat(key)
    values["model"] = RadianceModel(**values["model"])
    return CalibrationProfile(**values)
