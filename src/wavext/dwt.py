"""Fast periodic discrete wavelet transforms and their sparse matrix forms.

The transform always runs the full J levels, producing the coefficient layout

    [v00, w00, w10, w11, ..., w_{J-1,0}, ..., w_{J-1, 2^{J-1}-1}]

with scale blocks of sizes 1, 1, 2, 4, ..., 2^{J-1}.  Periodic boundary
conditions are realized by one wrap-padded copy of each step's input: every
filter tap then reads a strided slice of it (analysis), or adds into every
other output from a contiguous slice (polyphase synthesis).

The primal transform analyzes with the dual masks (h~, g~) and synthesizes
with the primal masks (h, g); the dual transform swaps the roles, so that
W* = W~^{-1} and (W^{-1})* = W~ hold.

Up to DENSE_MAX_N = 64 points, ``dwt`` and ``idwt`` return ``v @ M`` with M
the dense matrix of the whole J-level transform, formed once by running the
level steps on the identity and cached by the bank's masks, side, J and
direction.  Each level step costs a fixed 25-90 us at any short length, so
a 32-point cdf33 ``idwt`` takes 169 us by the steps and 1.2 us as the
product (207 us and 1.8 us at 64; one BLAS thread); the matrix-free applies
on the 2-D disk grids of 16-64 points per axis spent most of their time in
those steps.  The product agrees with the steps to round-off, not bit for
bit.  Longer
transforms run the level steps unchanged.  Their coarse tail is not moved
onto a dense product either: at J = 16, cdf51 perfect reconstruction then
errs by 1.0-2.9e-10 for tails of 16-256 points instead of 5.7e-11, and the
other families by 3.4e-14 instead of 5.8e-15.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .filters import FilterBank, Mask


class TransformError(ValueError):
    pass


def _check_len(v, J):
    if v.shape[-1] != 2**J:
        raise TransformError(f"vector length {v.shape[-1]} != 2^{J}")


def _wrap_pad(v, lo, hi):
    """v extended periodically along the last axis by lo entries in front and
    hi behind: ``out[..., lo + i] == v[..., i % n]`` for -lo <= i < n + hi."""
    n = v.shape[-1]
    if lo > n or hi > n:    # short blocks: the taps wrap more than once
        k = -(-lo // n)
        tiled = np.concatenate([v] * (k + 1 - (-hi // n)), axis=-1)
        return tiled[..., k * n - lo: (k + 1) * n + hi]
    return np.concatenate([v[..., n - lo:], v, v[..., :hi]], axis=-1)


def analysis_taps(v, masks):
    """Per tap of each mask, the strided view of v that the tap reads in one
    periodic analysis step along the last axis.

    Yields ``(k, c, view)`` in mask order, then tap order, where k indexes
    ``masks``, c is the tap value and ``view[..., l] == v[..., (2l + t) % n]``
    for the tap's index t and l < n // 2.  All views share one wrap-padded
    copy of v.
    """
    n = v.shape[-1]
    lo = max(0, -min(m.support[0] for m in masks))
    vp = _wrap_pad(v, lo, max(0, max(m.support[1] for m in masks) - 1))
    for k, mask in enumerate(masks):
        for s, c in enumerate(mask.taps.tolist(), lo + mask.offset):
            yield k, c, vp[..., s: s + n: 2]


def _analysis_step(v, h: Mask, g: Mask):
    """One filter-bank analysis step with periodic wrap-around.

    Operates on the last axis; leading axes are batched.
    """
    half = v.shape[-1] // 2
    outs = [np.zeros(v.shape[:-1] + (half,), dtype=v.dtype) for _ in range(2)]
    for k, c, view in analysis_taps(v, (h, g)):
        outs[k] += c * view
    return tuple(outs)


def _synthesis_step(v, w, h: Mask, g: Mask):
    """One filter-bank synthesis step with periodic wrap-around (last axis).

    Polyphase form: a tap at index t feeds the outputs of parity p = t % 2,
    out[2k + p] += c * coarse[(k - (t - p) / 2) % half].  Taps run in the
    order h, then g, so each output sums its terms in a fixed order.
    """
    half = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (2 * half,), dtype=np.result_type(v, w))
    parity = [out[..., 0::2], out[..., 1::2]]
    for mask, coarse in ((h, v), (g, w)):
        first, last = mask.support
        lo = max(0, last // 2)     # t // 2 = (t - p) / 2 for the parity p
        cp = _wrap_pad(coarse, lo, max(0, -(first // 2)))
        for t, c in enumerate(mask.taps.tolist(), first):
            s = lo - t // 2
            parity[t % 2] += c * cp[..., s: s + half]
    return out


@dataclass(frozen=True)
class TransformPlan:
    """Filter choice for one transform direction/side."""

    bank: FilterBank
    J: int
    side: str = "primal"   # primal | dual

    def __post_init__(self):
        if self.J < 1:
            raise TransformError("J must be >= 1")
        if self.side not in ("primal", "dual"):
            raise TransformError(f"bad side {self.side!r}")

    @property
    def analysis_masks(self):
        b = self.bank
        return (b.h_dual, b.g_dual) if self.side == "primal" else (b.h, b.g)

    @property
    def synthesis_masks(self):
        b = self.bank
        return (b.h, b.g) if self.side == "primal" else (b.h_dual, b.g_dual)


def _dwt_steps(v, plan: TransformPlan):
    """The forward transform as a cascade of J analysis steps."""
    h, g = plan.analysis_masks
    out = np.empty_like(v)
    cur = v
    for j in range(plan.J, 0, -1):
        cur, w = _analysis_step(cur, h, g)
        out[..., 2 ** (j - 1): 2**j] = w
    out[..., 0] = cur[..., 0]
    return out


def _idwt_steps(w, plan: TransformPlan):
    """The inverse transform as a cascade of J synthesis steps."""
    h, g = plan.synthesis_masks
    cur = w[..., :1].copy()
    for j in range(1, plan.J + 1):
        cur = _synthesis_step(cur, w[..., 2 ** (j - 1): 2**j], h, g)
    return cur


# Transforms of at most this many points run as one dense product.
DENSE_MAX_N = 64

# Dense transform matrices by the bank's masks, side, J and direction; at
# most 2 sides x 6 levels x 2 directions of 32 KiB or less per bank.
_dense = {}


def _dense_matrix(plan: TransformPlan, steps):
    """M with ``v @ M == steps(v, plan)`` up to round-off: row k is the
    transform of the k-th unit vector.  Keyed by the masks themselves, not
    the family name, which a custom bank can share."""
    b = plan.bank
    masks = tuple((m.offset, m.taps.tobytes())
                  for m in (b.h, b.g, b.h_dual, b.g_dual))
    key = (masks, plan.side, plan.J, steps)
    M = _dense.get(key)
    if M is None:
        M = steps(np.eye(2**plan.J), plan)
        M.setflags(write=False)
        M = _dense.setdefault(key, M)
    return M


def _transform(v, plan: TransformPlan, steps):
    v = np.asarray(v, dtype=float)
    _check_len(v, plan.J)
    n = v.shape[-1]
    if n > DENSE_MAX_N:
        return steps(v, plan)
    return (v.reshape(-1, n) @ _dense_matrix(plan, steps)).reshape(v.shape)


def dwt(v, plan: TransformPlan):
    """Full J-level forward transform along the last axis, O(N) per vector
    (a dense product up to DENSE_MAX_N points)."""
    return _transform(v, plan, _dwt_steps)


def idwt(w, plan: TransformPlan):
    """Full J-level inverse transform along the last axis, O(N) per vector
    (a dense product up to DENSE_MAX_N points)."""
    return _transform(w, plan, _idwt_steps)


def _upsampled_conv(a, taps, q):
    """a convolved with taps upsampled by q (q - 1 zeros between taps), as
    one shifted add of a per tap."""
    out = np.zeros(a.size + (taps.size - 1) * q)
    for i, c in enumerate(taps):
        out[i * q: i * q + a.size] += c * a
    return out


def idwt_column_filters(bank: FilterBank, J: int):
    """The J+1 cascade filters whose shifts make up the columns of W^-1.

    Returns a list ``[f_0, ..., f_{J-1}, f_scaling]`` of (offset, taps) pairs
    in compact (non-periodized) form; the column of W^-1 for wavelet (l, m) is
    the circular shift by m * 2^(J-l) of f_l periodized to length 2^J, and the
    first column is the periodization of f_scaling.
    """
    if J < 1:
        raise TransformError("J must be >= 1")
    h, g = bank.h, bank.g
    # P_k = h(z) h(z^2) ... h(z^{2^{k-1}}): synthesis cascade of k h-steps.
    P = [(0, np.array([1.0]))]
    off, taps = 0, np.array([1.0])
    for k in range(J):
        taps = _upsampled_conv(taps, h.taps, 2**k)
        off = off + h.offset * 2**k
        P.append((off, taps))
    filters = []
    for l in range(J):
        # wavelet at scale l: g(z^{2^{J-1-l}}) * P_{J-1-l}
        k = J - 1 - l
        poff, ptaps = P[k]
        filters.append((g.offset * 2**k + poff,
                        _upsampled_conv(ptaps, g.taps, 2**k)))
    filters.append(P[J])
    return filters


def sparse_idwt_rows(rows, bank: FilterBank, J: int):
    """Selected rows of W^-1 as a sparse matrix, built from the column filters.

    Each row has O(J) nonzeros; the dense matrix is never formed.  Column
    (l, m) of W^-1 holds tap i of filter l at row off + i + m * step
    (mod 2^J), so row r meets the taps i = rem + step * k, rem = (r - off)
    mod step, for every row at once.
    """
    n = 2**J
    rows = np.asarray(rows, dtype=np.int64)
    data, ri, ci = [], [], []
    for l, (off, taps) in enumerate(idwt_column_filters(bank, J)):
        if l == J:      # scaling column: single column, index 0
            step, nshift, base_col = n, 1, 0
        else:
            step, nshift, base_col = 2 ** (J - l), 2**l, 2**l
        i = (rows[:, None] - off) % step + step * np.arange(-(-taps.size // step))
        keep = i < taps.size
        keep[keep] = taps[i[keep]] != 0
        r_pos, k = np.nonzero(keep)
        i = i[r_pos, k]
        data.append(taps[i])
        ri.append(r_pos)
        ci.append(base_col + ((rows[r_pos] - off - i) // step) % nshift)
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
        shape=(rows.size, n),
    )
    return mat.tocsr()


def operator_norms(bank: FilterBank, J: int):
    """2-norms of W, W^-1, W~ and W~^-1 by power iteration on the fast paths."""
    rng = np.random.default_rng(0)
    out = {}
    for name, side, inverse in (
        ("W", "primal", False), ("Winv", "primal", True),
        ("Wdual", "dual", False), ("Wdualinv", "dual", True),
    ):
        plan = TransformPlan(bank, J, side)
        fwd = idwt if inverse else dwt
        # adjoint of dwt(side) is idwt of the other side by W* = W~^{-1}
        other = TransformPlan(bank, J, "dual" if side == "primal" else "primal")
        adj = dwt if inverse else idwt
        v = rng.standard_normal(2**J)
        v /= np.linalg.norm(v)
        s = 0.0
        for _ in range(200):
            u = adj(fwd(v, plan), other)
            s_new = np.linalg.norm(u)
            v = u / s_new
            if abs(s_new - s) < 1e-12 * s_new:
                s = s_new
                break
            s = s_new
        out[name] = float(np.sqrt(s))
    return out
