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
(1991)).  Its purity after the splitter, from two copies of the output
with the transmitted modes and the reflected modes each mixed 50:50, is

    P = sum_(p=0..k) C(k,p)^2 (2p)! cos(2 theta)^(2p) N_(2k-2p)(2x) / (4^k N_k(x)^2),

N_n(y) = n! L_n(-y), a sum of k+1 nonnegative terms.  A converged series
takes it (``_closed_entropy``), in scalar Python at any k; an unconverged
one is not a†^k|beta> (its cut at m < D does not factor), so it builds the
D x D matrix A (``split``) and takes its purity (``reduced_purity``), each
importing numpy itself.
"""
from __future__ import annotations

import math
from array import array
from itertools import accumulate
from operator import mul

from .errors import HardCapExceeded, InvalidParameter, UnnormalizedInput
from .series import TruncatedSeries, _log_sum, _point, _ratio_constant
from .states import StateSpec, _record

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
_WALK_BITS = 80  # fraction bits of _closed_entropy's fixed-point Laguerre walk


class BeamSplitterSetting(_record("BeamSplitterSetting", "theta")):
    """Transmittance angle theta in (0, pi/2]; theta = pi/4 is the 50:50 splitter."""

    __slots__ = ()

    def __new__(cls, theta: float = math.pi / 4.0) -> BeamSplitterSetting:
        th = float(theta)
        if not math.isfinite(th) or not (0.0 < th <= math.pi / 2.0):
            raise InvalidParameter(f"theta must lie in (0, pi/2], got {theta}")
        return tuple.__new__(cls, (th,))


class JointAmplitudes(_record("JointAmplitudes", "matrix norm_tol spec")):
    """Joint Fock amplitudes A(j, l) of the two output modes.

    ``matrix[j, l]`` holds the amplitude for j transmitted and l reflected
    photons; rows/columns run over 0..D-1 with D = k + n_max + 1, and every
    entry with j + l < k (the input carries at least k photons) or
    j + l >= D (beyond the retained series) is exactly zero.  The splitter is
    unitary, so the squared entries sum to 1 within ``norm_tol``: ten times
    the source series' tail bound plus a rounding floor of 16 eps times the
    largest magnitude among the log terms summed into any amplitude (at
    least 1).  ``spec`` is the source state, named in errors.  Equality is
    identity, as a matrix has no truth value.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class EntanglementResult(_record("EntanglementResult", "purity linear_entropy")):
    __slots__ = ()


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
    rel_log_weights = series.rel_log_weights
    ln_sum = _log_sum(rel_log_weights)  # ln sum_n w_n/w_anchor
    ln_c = 0.5 * (rel_log_weights - ln_sum)  # ln c_m, m = n + k
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


def _closed_entropy(spec: StateSpec, setting: BeamSplitterSetting) -> EntanglementResult:
    """Purity and S of a†^k|beta> after the splitter, in O(k) (module docstring).

    P's terms at theta = 0, T_p, sum to 1, and with a_n = N_n(2x)/N_(n-1)(2x)
    their ratios are T_p/T_(p-1) = 2 (k-p+1)^2 (2p-1) / (p a_(m+1) a_(m+2)),
    m = 2k - 2p, so the products u_p = T_p/T_0, over their sum, give each
    T_p.  a_n = 2x + n + g_n(2x) comes from series._laguerre_walk's
    recurrence, run here in 80-bit fixed point, and each ratio is one
    correctly rounded division: in doubles the walk's rounding drifts over
    the steps, and S missed by up to 4.1e-15 at k = 1000.  With L =
    ln cos^2(2 theta), S = sum u_p (1 - e^(pL)) / sum u_p and, if S is not
    the smaller, P = sum u_p e^(pL) / sum u_p keep the smaller's relative
    digits; the other is 1 minus it.
    """
    k = spec.k
    y = int(math.ldexp(2.0 * _ratio_constant(spec), _WALK_BITS))  # 2x, in units of 2^-80

    def walk():  # a_n for n = 1..2k, in the units of y
        g = 0  # g_n(2x)
        for n in range(1, 2 * k + 1):
            yield y + (n << _WALK_BITS) + g
            g = (n * (y + g) << _WALK_BITS) // ((n << _WALK_BITS) + y + g)

    a = walk()
    # T_p/T_(p-1) at p = k - j, from the pair a_(2j+1), a_(2j+2) that zip takes from a
    ratios = array("d", ((2 * (j + 1) ** 2 * (2 * (k - j) - 1) << 2 * _WALK_BITS)
                         / ((k - j) * a_odd * a_even) for j, a_odd, a_even in zip(range(k), a, a)))
    u = array("d", accumulate(reversed(ratios), mul, initial=1.0))
    sin2 = math.sin(2.0 * setting.theta) ** 2  # ln cos^2 without cancelling near 1
    ln_cos2 = (math.log1p(-sin2) if sin2 < 0.5
               else 2.0 * math.log(abs(math.cos(2.0 * setting.theta))))
    total = math.fsum(u)
    entropy = math.fsum(-t * math.expm1(p * ln_cos2) for p, t in enumerate(u)) / total
    if entropy < 0.5:
        return EntanglementResult(purity=1.0 - entropy, linear_entropy=entropy)
    purity = math.fsum(t * math.exp(p * ln_cos2) for p, t in enumerate(u)) / total
    return EntanglementResult(purity=purity, linear_entropy=1.0 - purity)


def linear_entropy(series: TruncatedSeries,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   *,
                   allow_unconverged: bool = False) -> EntanglementResult:
    """S = 1 - Tr(rho_a^2) of the transmitted mode after splitting with vacuum.

    A converged series gives the S of the untruncated state it truncates,
    a†^k|beta>, from the O(k) closed form (module docstring) with no
    matrix, to within 2.2e-16 and, for a small S, a few ulps relative, at
    every k up to 2000 tried; ``series`` supplies only the state and the
    gate.  An unconverged series (a fixed cutoff short of
    the certificate) is refused unless ``allow_unconverged``; it takes
    ``split`` and ``reduced_purity``, whose dimension cap can refuse it, and
    its S is clamped at 0, as a pure reduced state's purity can round a few
    ulps above 1 (``purity`` keeps the raw value).
    """
    if not series.converged and not allow_unconverged:
        raise InvalidParameter(
            "series is not converged; pass allow_unconverged=True to propagate it anyway")
    if not isinstance(setting, BeamSplitterSetting):
        raise InvalidParameter("setting must be a BeamSplitterSetting")
    if series.converged:
        return _closed_entropy(series.spec, setting)
    purity = reduced_purity(split(series, setting))
    return EntanglementResult(purity=purity, linear_entropy=max(1.0 - purity, 0.0))
