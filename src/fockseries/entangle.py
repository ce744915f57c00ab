"""Beam-splitter entanglement: joint output amplitudes, purity, linear entropy.

The state meets vacuum at a two-mode beam splitter with amplitude
transmittance t = cos(theta) and reflectance r = sin(theta).  An m-photon
component splits as

    |m, 0>  ->  sum_j sqrt(C(m, j)) t^j r^(m-j) |j, m-j>,

so with real nonnegative input amplitudes c_m the joint amplitudes are the
real numbers A(j, l) = c_{j+l} sqrt(C(j+l, j)) t^j r^l.  Other phase
conventions for the reflected arm multiply each column l by a unit phase,
which leaves the reduced state's purity unchanged (a tested invariant).
The entanglement measure is the linear entropy S = 1 - Tr(rho_a^2) of the
transmitted mode's reduced state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import HardCapExceeded, InvalidParameter, UnnormalizedInput
from .series import TruncatedSeries, _ln_factorials, _point, normalization_log
from .states import StateSpec

# rounding slack on the unit-norm check, in units of eps * log_scale: each log
# amplitude sums about eight roundings of terms up to log_scale in magnitude,
# and squaring doubles the relative error of exp
_ROUNDING_ULPS = 16.0
# largest D for split's dense D x D float64 matrix (512 MB, the entropy
# path's only D x D array)
MAX_DIM = 8192
# largest squared mass of an edge run of rows or columns cut off the purity's box
_TRIM_MASS = 1e-30
_BLOCK = 32  # box rows per Gram product


@dataclass(frozen=True)
class BeamSplitterSetting:
    """Transmittance angle theta in (0, pi/2]; theta = pi/4 is the 50:50 splitter."""

    theta: float = math.pi / 4.0

    def __post_init__(self) -> None:
        th = float(self.theta)
        if not math.isfinite(th) or not (0.0 < th <= math.pi / 2.0):
            raise InvalidParameter(f"theta must lie in (0, pi/2], got {self.theta}")
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True, eq=False)
class JointAmplitudes:
    """Joint Fock amplitudes A(j, l) of the two output modes.

    ``matrix[j, l]`` holds the amplitude for j transmitted and l reflected
    photons; rows/columns run over 0..D-1 with D = k + n_max + 1, and every
    entry with j + l < k (the input carries at least k photons) or
    j + l >= D (beyond the retained series) is exactly zero.  The splitter is
    unitary, so the squared entries sum to 1 within ``norm_tol``: ten times
    the source series' tail bound plus a rounding floor of 16 eps times the
    largest magnitude among the log terms summed into any amplitude (at
    least 1).  ``spec`` is the source state, named in errors.
    """

    matrix: np.ndarray
    norm_tol: float
    spec: StateSpec


@dataclass(frozen=True)
class EntanglementResult:
    purity: float
    linear_entropy: float
    converged: bool


def split(series: TruncatedSeries,
          setting: BeamSplitterSetting = BeamSplitterSetting()) -> JointAmplitudes:
    """Expand (state tensor vacuum) over the joint Fock basis of the outputs.

    Amplitudes are assembled in log-space, half log-binomial + ln c_m +
    j ln t + l ln r with m = j + l, over the whole D x D square at once and
    exponentiated in place.  The m-dependent terms are Hankel views of
    ln m! and of ln c_m, the latter padded with -inf off k <= m < D, so
    those cells come out exactly 0.0.  theta in (0, pi/2] keeps t and r
    positive (cos(pi/2) is 6.1e-17 in floating point), so both logs are
    finite.  ``norm_tol`` is fixed here, from the series' tail bound and the
    largest log term, for reduced_purity's unit-norm check.
    """
    if not isinstance(setting, BeamSplitterSetting):
        raise InvalidParameter("setting must be a BeamSplitterSetting")

    k = series.spec.k
    dim = series.n_max + k + 1
    if dim > MAX_DIM:
        raise HardCapExceeded(
            f"{_point(series.spec)}: output dimension D={dim} exceeds the split cap {MAX_DIM}")
    ln_n = normalization_log(series)
    ln_c = ln_n + 0.5 * series.log_weights  # ln c_m, m = n + k
    ln_t = math.log(math.cos(setting.theta))
    ln_r = math.log(math.sin(setting.theta))

    # Hankel views lg_m[j, l] = ln (j+l)! and ln_c_m[j, l] = ln c_{j+l}
    lg = _ln_factorials(2 * dim - 1)
    ln_c_pad = np.full(2 * dim - 1, -np.inf)
    ln_c_pad[k:dim] = ln_c
    lg_m = sliding_window_view(lg, dim)
    ln_c_m = sliding_window_view(ln_c_pad, dim)
    idx = np.arange(dim)

    matrix = np.subtract(lg_m, lg[:dim, None])  # the only D x D array
    matrix -= lg[:dim]
    matrix *= 0.5
    matrix += ln_c_m
    matrix += (idx * ln_t)[:, None]
    matrix += idx * ln_r
    np.exp(matrix, out=matrix)
    log_scale = max(abs(ln_n), float(lg[dim - 1]), (dim - 1) * abs(ln_t), (dim - 1) * abs(ln_r))
    floor = _ROUNDING_ULPS * np.finfo(np.float64).eps * max(1.0, log_scale)
    return JointAmplitudes(matrix=matrix, norm_tol=10.0 * series.tail_bound_rel + floor,
                           spec=series.spec)


def _mass_window(mass: np.ndarray) -> tuple[int, int]:
    """[lo, hi) of ``mass`` less the longest run at each end summing to <= _TRIM_MASS."""
    lo = int(np.searchsorted(np.cumsum(mass), _TRIM_MASS, side="right"))
    hi = mass.size - int(np.searchsorted(np.cumsum(mass[::-1]), _TRIM_MASS, side="right"))
    return lo, hi


def reduced_purity(amps: JointAmplitudes) -> float:
    """Tr(rho_a^2) = ||A A^T||_F^2 for rho_a(j, j') = sum_l A(j, l) A(j', l).

    The unit norm is checked on the whole matrix, to within the
    ``amps.norm_tol`` that split set: the row masses sum_l A(j, l)^2 sum to
    the squared norm.  The purity is then taken on the box A[r0:r1, c0:c1]
    left after dropping, at each end of the rows and of the columns, the
    longest run of squared mass at most 1e-30.  For a unit-norm A, dropping rows or columns of squared mass delta changes the
    purity by at most 2 delta + delta^2 (Cauchy-Schwarz), so |dP| <= about
    8e-30, far below one ulp.  The symmetric Gram matrix of the box's
    shorter side W is summed in blocks of 32 rows against the rows from
    there on: O(W^3) work in BLAS-3 products and 32 x W extra memory.
    """
    a = amps.matrix
    row_mass = np.einsum("ij,ij->i", a, a)
    norm = float(row_mass.sum())
    if not math.isfinite(norm) or abs(norm - 1.0) > amps.norm_tol:
        raise UnnormalizedInput(f"{_point(amps.spec)}: joint amplitudes have squared norm "
                                f"{norm!r}, beyond 1 +/- {amps.norm_tol:g}")
    r0, r1 = _mass_window(row_mass)
    c0, c1 = _mass_window(np.einsum("ij,ij->j", a, a))
    box = a[r0:r1, c0:c1]
    if box.shape[0] > box.shape[1]:
        box = box.T
    purity = 0.0
    for lo in range(0, box.shape[0], _BLOCK):
        g = box[lo:lo + _BLOCK] @ box[lo:].T
        diag, off = g[:, :_BLOCK], g[:, _BLOCK:]
        purity += np.einsum("ij,ij->", diag, diag) + 2.0 * np.einsum("ij,ij->", off, off)
    return float(purity)


def linear_entropy(series: TruncatedSeries,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   *,
                   allow_unconverged: bool = False) -> EntanglementResult:
    """S = 1 - Tr(rho_a^2) of the transmitted mode after splitting with vacuum.

    S is clamped at 0: a pure reduced state's purity can round a few ulps
    above 1.  ``purity`` keeps the raw value.  An unconverged series (a
    fixed cutoff short of the certificate) is refused unless
    ``allow_unconverged``; the result then carries ``converged=False``.
    """
    if not series.converged and not allow_unconverged:
        raise InvalidParameter(
            "series is not converged; pass allow_unconverged=True to propagate it anyway")
    purity = reduced_purity(split(series, setting))
    return EntanglementResult(purity=purity,
                              linear_entropy=max(1.0 - purity, 0.0),
                              converged=series.converged)
