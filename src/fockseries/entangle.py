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
(1991)), so A has rank k+1: the splitter sends it to
sum_i u_i a†^i b†^(k-i) |t beta>|r beta>, with u_i = C(k,i) t^i r^(k-i).
In the Fock basis a†^i|g> is, up to e^(-g^2/2), the vector
h_i(j) = lam^((j-i)/2) sqrt(j!)/(j-i)! at lam = g^2.  With Phi the Gram
matrix of h_0..h_k at lam = x t^2, Psi the same at x r^2 and
M_ii' = u_i u_i' Psi_(k-i, k-i'), the purity is Tr((M Phi)^2)/Tr(M Phi)^2.
A converged series with k <= 64 takes that path, two (k+1) x (k+1) Grams
of Fock series over one mode; the rest build the D x D matrix A (``split``)
and take its purity (``reduced_purity``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HardCapExceeded, InvalidParameter, UnnormalizedInput
from .series import (
    TruncatedSeries,
    _first_subunit_ratio_index,
    _peak_width,
    _point,
    _ratio_constant,
    _sum_outward,
    normalization_log,
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
# largest k whose converged series take the Gram path: timed against split +
# reduced_purity at q = 1, it is at most 1.05x slower at k = 64 (D < 120) and
# 15x faster at D = 1264; at k = 128, 1.8x slower and 6.7x faster
_GRAM_MAX_K = 64
# certified tail mass of each Gram column outside its window, relative to the
# mass inside; Cauchy-Schwarz carries it to every entry
_GRAM_TOL = 1e-20
_LN2 = math.log(2.0)
# exponent of a zero factor: no column takes its scale from a zero entry, and 2000 fit int32
_ZERO_EXPONENT = -(1 << 20)


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
    if not isinstance(setting, BeamSplitterSetting):
        raise InvalidParameter("setting must be a BeamSplitterSetting")

    k = series.spec.k
    dim = series.n_max + k + 1
    if dim > MAX_DIM:
        raise HardCapExceeded(
            f"{_point(series.spec)}: output dimension D={dim} exceeds the split cap {MAX_DIM}")
    matrix = np.zeros((dim, dim))  # the only D x D array
    ln_n = normalization_log(series)
    ln_c = ln_n + 0.5 * series.log_weights  # ln c_m, m = n + k
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
    longest run of squared mass at most 1e-30.  For a unit-norm A, dropping
    rows or columns of squared mass delta changes the purity by at most
    2 delta + delta^2 (Cauchy-Schwarz), so |dP| <= about
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


def _fock_gram(ln_lam: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the columns h_i, i <= k, at lam = exp(ln_lam), each
    scaled by lam^(i/2) 2^(-E_i) and all by one positive constant; returns
    the Gram matrix and the integer exponents E.

    h_i(j) = lam^(-i/2) j(j-1)..(j-i+1) g(j) with g(j)^2 = lam^j / j!.  The
    logs ln g(j)/g(j0) are summed outward from g's mode j0 = floor(lam) and
    split into mantissa and power of two, so that no entry under- or
    overflows at large lam and k.  One frexp splits the integers n = j - i:
    row by row, the mantissas multiply (those of the factors, then g's) and
    the exponents add, as differences of one running sum.  E_i puts each
    column's largest entry in [1/2, 1): an exact scaling, which the trace
    ratio does not see.  The window of j is grown until it holds all but
    _GRAM_TOL of every column's squared mass.  The term ratio of h_i(j)^2,
    lam (j+1)/(j+1-i)^2, falls for j >= i, so the mass above the window's top
    J1 is at most the top term times rho/(1-rho), rho the ratio at J1, and the
    mass below its bottom J0 > i at most the bottom term times s/(1-s),
    s = (J0-i)^2/(lam J0) the ratio down from J0, which falls further down.
    """
    lam = math.exp(ln_lam)
    j0 = int(lam)
    n_peak = _first_subunit_ratio_index(lam, k)
    delta = _peak_width(-2.0 * math.log(_GRAM_TOL), n_peak, k)
    while True:
        lo, hi = max(0, j0 - delta), k + n_peak + delta
        width, c = hi + 1 - lo, j0 - lo
        n = np.arange(lo - k, hi + 1.0)  # the factors j - i, i < k; n[k:] is j
        fm, fe = np.frexp(n)
        z = max(0, k + 1 - lo)  # n <= 0: a zero factor, whose entries stay 0
        fm[:z], fe[:z] = 0.0, _ZERO_EXPONENT
        np.add.accumulate(fe, out=fe)  # np.cumsum without its Python-level dispatch
        ln_g = _sum_outward(0.5 * (ln_lam - np.log(n[k + 1:])), c)  # from ln g(j+1)/g(j)
        m = np.empty((k + 1, width))
        e = np.empty((k + 1, width), dtype=np.int32)
        e[0] = np.floor(ln_g * (1.0 / _LN2))
        np.exp(ln_g - e[0] * _LN2, out=m[0])
        # fe holds running sums; row i of this (int32) Hankel view of it is fe[k-i:][:width]
        np.subtract(fe[k:] + e[0], np.ndarray((k + 1, width), np.int32, fe, 4 * k, (-4, 4)), out=e)
        m[1:2] = fm[k:]  # row 1, empty at k = 0
        for r in range(1, k):
            np.multiply(m[r], fm[k - r:k - r + width], out=m[r + 1])
        m[1:] *= m[0]
        _, de = np.frexp(m, out=(m, None))
        e += de
        top = np.maximum.reduce(e, axis=1)
        f = np.ldexp(m, e - top[:, None], out=m)
        gram = f @ f.T
        ratios = ([lam * (hi + 1) / ((hi + 1 - i) * (hi + 1 - i)) for i in range(k + 1)]
                  + [(lo - i) * (lo - i) / (lam * lo) for i in range(min(lo, k + 1))])
        ends = f[:, -1].tolist() + f[:lo, 0].tolist()  # rho for each i, then s for i < lo
        if all(r < 1.0 and y * y * r <= _GRAM_TOL * (1.0 - r) * w
               for r, y, w in zip(ratios, ends, gram.diagonal().tolist() * 2)):
            return gram, top
        delta *= 2


@functools.lru_cache(maxsize=_GRAM_MAX_K + 1)
def _binomials(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only C(k,i), i <= k, as floats, and their frexp mantissas and exponents."""
    comb = np.array([float(math.comb(k, i)) for i in range(k + 1)])
    arrays = (comb, *np.frexp(comb))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _gram_purity(spec: StateSpec, setting: BeamSplitterSetting) -> float:
    """Tr((M Phi)^2)/Tr(M Phi)^2 from the two Fock Grams (module docstring).

    With the columns scaled as _fock_gram scales them, u_i lam_a^(-i/2)
    lam_b^(-(k-i)/2) = C(k,i) x^(-k/2): t and r enter only through the
    Grams, and M's weights are C(k,i) 2^(E_a,i + E_b,k-i), exact up to the
    rounding of C(k,i), over their largest.  At x = 0, the Fock state |k>,
    rho_a is diagonal with the binomial weights C(k,i) t^2i r^2(k-i).
    """
    k = spec.k
    t, r = math.cos(setting.theta), math.sin(setting.theta)
    x = _ratio_constant(spec) if spec.alpha_abs > 0.0 else 0.0
    comb, mantissa, e_c = _binomials(k)
    if x == 0.0:
        i = np.arange(k + 1)
        p = comb * t ** (2 * i) * r ** (2 * (k - i))
        return float(p @ p / p.sum() ** 2)
    phi, e_a = _fock_gram(math.log(x) + 2.0 * math.log(t), k)
    psi, e_b = _fock_gram(math.log(x) + 2.0 * math.log(r), k)
    e = e_c + e_a + e_b[::-1]
    u = np.ldexp(mantissa, e - e.max())
    m_phi = (np.multiply.outer(u, u) * psi[::-1, ::-1]) @ phi
    return float((m_phi * m_phi.T).sum() / m_phi.trace() ** 2)


def linear_entropy(series: TruncatedSeries,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   *,
                   allow_unconverged: bool = False) -> EntanglementResult:
    """S = 1 - Tr(rho_a^2) of the transmitted mode after splitting with vacuum.

    A converged series with k <= 64 takes the purity from the two
    (k+1) x (k+1) Fock Grams of the photon-added coherent state it
    truncates (module docstring), with no D x D matrix.  Its S is that of the
    untruncated state, good to about 1e-15 absolute; ``series`` supplies
    only the state and the gate.  An unconverged series is not rank k+1 (its
    cut at m < D does not factor), and past k = 64 the Gram path no longer
    pays (see _GRAM_MAX_K): both take ``split`` and ``reduced_purity``, whose
    dimension cap can refuse them.

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
    if series.converged and series.spec.k <= _GRAM_MAX_K:
        purity = _gram_purity(series.spec, setting)
    else:
        purity = reduced_purity(split(series, setting))
    return EntanglementResult(purity=purity, linear_entropy=max(1.0 - purity, 0.0))
