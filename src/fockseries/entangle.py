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

Every state here is the photon-added coherent state a†^k|beta> with
beta^2 = x = |alpha|^2 q^(-2k) (Agarwal & Tara, Phys. Rev. A 43, 492
(1991)), which is D(beta)(a† + beta)^k|0>: a displaced state of at most k
photons.  The splitter maps D(beta) x 1 to the local D(t beta) x D(r beta),
which leave the purity unchanged, so A has rank k+1 and, in the displaced
frame, is (k+1) x (k+1).  A converged series with k <= 128 takes that
path (``_displaced_purity``); the rest build the D x D matrix A (``split``)
and take its purity (``reduced_purity``); each imports numpy itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import HardCapExceeded, InvalidParameter, UnnormalizedInput
from .series import (
    _CLOSED_FORM_MAX_K,
    TruncatedSeries,
    _logsumexp,
    _point,
    _ratio_constant,
)
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
_BUILD_CELLS = 1 << 15  # cells per row block of split's build (256 KB)


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


def split(series: TruncatedSeries,
          setting: BeamSplitterSetting = BeamSplitterSetting()) -> JointAmplitudes:
    """Expand (state tensor vacuum) over the joint Fock basis of the outputs.

    Amplitudes are assembled in log-space, half log-binomial + ln c_m +
    j ln t + l ln r with m = j + l, from Hankel views of ln m! and of ln c_m
    (padded with -inf off k <= m < D, so those cells come out exactly 0.0).
    Row blocks of 2^15 cells, built in one scratch buffer that stays in
    cache, are exponentiated into a zeroed D x D matrix; the block from row
    lo fills only the columns l < D - lo, as j + l >= D past them.  theta in
    (0, pi/2] keeps t and r positive (cos(pi/2) is 6.1e-17 in floating
    point), so both logs are finite.  ``norm_tol`` is fixed here, from the
    series' tail bound and the largest log term, for the unit-norm check.
    """
    import numpy as np
    if not isinstance(setting, BeamSplitterSetting):
        raise InvalidParameter("setting must be a BeamSplitterSetting")

    k = series.spec.k
    dim = series.n_max + k + 1
    if dim > MAX_DIM:
        raise HardCapExceeded(
            f"{_point(series.spec)}: output dimension D={dim} exceeds the split cap {MAX_DIM}")
    matrix = np.zeros((dim, dim))  # the only D x D array
    ln_sum = _logsumexp(series.rel_log_weights)  # ln sum_n w_n/w_anchor
    ln_c = 0.5 * (series.rel_log_weights - ln_sum)  # ln c_m, m = n + k
    ln_t = math.log(math.cos(setting.theta))
    ln_r = math.log(math.sin(setting.theta))

    # Hankel views lg_m[j, l] = ln (j+l)! and ln_c_m[j, l] = ln c_{j+l}
    lg = np.fromiter(map(math.lgamma, range(1, 2 * dim)), np.float64, 2 * dim - 1)
    ln_c_pad = np.full(2 * dim - 1, -np.inf)
    ln_c_pad[k:dim] = ln_c
    lg_m = np.ndarray((dim, dim), np.float64, lg, 0, (8, 8))
    ln_c_m = np.ndarray((dim, dim), np.float64, ln_c_pad, 0, (8, 8))

    rows = max(1, _BUILD_CELLS // dim)
    buf = np.empty(min(rows, dim) * dim)
    for lo in range(0, dim, rows):
        hi, w = min(lo + rows, dim), dim - lo
        blk = buf[:(hi - lo) * w].reshape(hi - lo, w)
        np.subtract(lg_m[lo:hi, :w], lg[lo:hi, None], out=blk)
        blk -= lg[:w]
        blk *= 0.5
        blk += ln_c_m[lo:hi, :w]
        blk += (np.arange(lo, hi) * ln_t)[:, None]
        blk += np.arange(w) * ln_r
        np.exp(blk, out=matrix[lo:hi, :w])
    log_scale = max(abs(ln_sum), float(lg[dim - 1]), (dim - 1) * abs(ln_t), (dim - 1) * abs(ln_r))
    floor = _ROUNDING_ULPS * np.finfo(np.float64).eps * max(1.0, log_scale)
    return JointAmplitudes(matrix=matrix, norm_tol=10.0 * series.tail_bound_rel + floor,
                           spec=series.spec)


def _mass_window(mass: np.ndarray) -> tuple[int, int]:
    """[lo, hi) of ``mass`` less the longest run at each end summing to <= _TRIM_MASS."""
    import numpy as np
    lo = int(np.searchsorted(np.cumsum(mass), _TRIM_MASS, side="right"))
    hi = mass.size - int(np.searchsorted(np.cumsum(mass[::-1]), _TRIM_MASS, side="right"))
    return lo, hi


def reduced_purity(amps: JointAmplitudes) -> float:
    """Tr(rho_a^2) = ||A A^T||_F^2 for rho_a(j, j') = sum_l A(j, l) A(j', l).

    The unit norm is checked on the whole matrix, to within the
    ``amps.norm_tol`` that split set: the row masses sum_l A(j, l)^2 sum to
    the squared norm.  The purity is then taken on the box A[r0:r1, c0:c1]
    left after dropping, at each end of the rows and of the columns, the
    longest run of squared mass at most 1e-30.  For a unit-norm A, dropping
    rows or columns of squared mass delta changes the purity by at most
    2 delta + delta^2 (Cauchy-Schwarz), so |dP| <= about
    8e-30, far below one ulp.  The symmetric Gram matrix of the box's
    shorter side W is summed in blocks of 32 rows against the rows from
    there on: O(W^3) work in BLAS-3 products and 32 x W extra memory.
    """
    import numpy as np
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


@functools.lru_cache(maxsize=16)
def _displaced_factors(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only m = 0..k, sqrt(m+1)/(k-m) for m < k, the (k+1) x (k+1)
    Hankel factor sqrt(C(j+l, j)), 0 past j + l = k, and the Hankel index
    min(j+l, k): at most 129^2 intp (130 KB) an entry, 2.1 MB in all 16."""
    import numpy as np
    m = np.arange(k + 1.0)
    roots = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        roots[j, :k + 1 - j] = [math.sqrt(math.comb(j + l, j)) for l in range(k + 1 - j)]
    hankel = np.minimum(np.add.outer(np.arange(k + 1), np.arange(k + 1)), k)
    factors = (m, np.sqrt(m[1:]) / (k - m[:k]), roots, hankel)
    for f in factors:
        f.flags.writeable = False
    return factors


def _displaced_purity(spec: StateSpec, setting: BeamSplitterSetting) -> float:
    """Tr(rho_a^2) of the state a†^k|beta> after the splitter, in k+1 terms.

    a†^k|beta> = D(beta)(a† + beta)^k|0> has the displaced-frame amplitudes
    c'_m ∝ C(k,m) beta^(k-m) sqrt(m!), m <= k.  Their ratios
    c'_(m+1)/c'_m = (k-m)/(beta sqrt(m+1)) fall with m, so the largest term
    is 1 and the others are products of ratios below 1, taken outward from
    it (beta = 0 leaves only c'_k).  The splitter maps D(beta) x 1 to the
    local D(t beta) x D(r beta), which leave the purity as it is: the joint
    amplitudes are A'(j, l) = c'_(j+l) sqrt(C(j+l, j)) t^j r^l, j + l <= k,
    and the purity is ||A' A'^T||_F^2 / Tr(A' A'^T)^2.
    """
    import numpy as np
    k = spec.k
    t, r = math.cos(setting.theta), math.sin(setting.theta)
    beta = math.sqrt(_ratio_constant(spec))
    m, root_ratio, roots, hankel = _displaced_factors(k)
    down = beta * root_ratio  # c'_m / c'_(m+1), rising with m
    peak = int(down.searchsorted(1.0, side="right"))
    c = np.empty(k + 1)  # c'_m, all finite and in [0, 1]
    c[peak] = 1.0
    if peak:  # [peak-1::-1] would wrap to the whole array at peak = 0
        np.multiply.accumulate(down[peak - 1::-1], out=c[peak - 1::-1])
    np.divide(1.0, down[peak:], out=down[peak:])
    np.multiply.accumulate(down[peak:], out=c[peak + 1:])
    a = c[hankel]  # c'_k past j + l = k, where roots is 0
    a *= roots
    a *= (t ** m)[:, None]
    a *= r ** m
    # each dropped entry weighs < 1e-300 against a squared norm >= c'_peak^2 = 1,
    # and no product in the Gram below is subnormal (slow in BLAS)
    a[a < 1e-150] = 0.0
    rho = a @ a.T  # then pairwise sums, unlike einsum, as ndarray.sum and trace
    return float(np.add.reduce(rho * rho, axis=None) / np.add.reduce(rho.diagonal()) ** 2)


def linear_entropy(series: TruncatedSeries,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   *,
                   allow_unconverged: bool = False) -> EntanglementResult:
    """S = 1 - Tr(rho_a^2) of the transmitted mode after splitting with vacuum.

    A converged series with k <= 128 takes the purity from the
    (k+1) x (k+1) joint amplitudes of the photon-added coherent state it
    truncates, in its displaced frame (module docstring), with no D x D
    matrix.  Its S is that of the untruncated state, good to about 1e-15
    absolute, at 15 to 30 us a point for k = 3 on a shared 2-vCPU x86 host
    (its load sets which); ``series`` supplies only the state and the gate.
    An unconverged series is not rank k+1 (its cut at m < D does not
    factor), and past k = 128 (_CLOSED_FORM_MAX_K) the series stays on the
    dense path: both take ``split`` and ``reduced_purity``, whose dimension
    cap can refuse them.

    S is clamped at 0: a pure reduced state's purity can round a few ulps
    above 1.  ``purity`` keeps the raw value.  An unconverged series (a
    fixed cutoff short of the certificate) is refused unless
    ``allow_unconverged``.
    """
    if not series.converged and not allow_unconverged:
        raise InvalidParameter(
            "series is not converged; pass allow_unconverged=True to propagate it anyway")
    if not isinstance(setting, BeamSplitterSetting):
        raise InvalidParameter("setting must be a BeamSplitterSetting")
    if series.converged and series.spec.k <= _CLOSED_FORM_MAX_K:
        purity = _displaced_purity(series.spec, setting)
    else:
        purity = reduced_purity(split(series, setting))
    return EntanglementResult(purity=purity, linear_entropy=max(1.0 - purity, 0.0))
