"""Fast periodic discrete wavelet transforms and their sparse matrix forms.

The transform always runs the full J levels, producing the coefficient layout

    [v00, w00, w10, w11, ..., w_{J-1,0}, ..., w_{J-1, 2^{J-1}-1}]

with scale blocks of sizes 1, 1, 2, 4, ..., 2^{J-1}.  A level step fills
its outputs a block of STEP_BLOCK at a time: every filter tap adds into the
block through one reused scratch block, reading a strided slice of the
input (analysis; only the first and last blocks copy the few entries they
read across its ends) or a contiguous slice of one wrap-padded copy of
each part (polyphase synthesis, into every other output).  The analysis
cascade writes each detail into the result and each coarse part into one
of two buffers, so it allocates no temporary as long as a step.

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
bit.  Longer transforms run the level steps in their bits.  Their coarse
tail is not moved onto a dense product: at J = 16, cdf51 perfect
reconstruction then errs by 1.0-2.9e-10 for tails of 16-256 points instead
of 5.7e-11, and the other families by 3.4e-14 instead of 5.8e-15.  Instead,
a level step of at most SPARSE_MAX_N = 2^12 points is one product with a
cached sparse matrix that sums each output's terms in the step's order
(``_level_matrix``; same bits where scipy's loop does not fuse multiply
and add): a 1024-point cdf33 ``dwt`` takes 83 us instead of 295 us
(``idwt`` 80 us instead of 282 us).  Longer levels keep the step, since
their matrices would cost more memory and set-up than they save.
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


def _wrap_pad(v, lo, hi, axis=-1):
    """v extended periodically along ``axis`` by lo entries in front and hi
    behind: along that axis, ``out[lo + i] == v[i % n]`` for
    -lo <= i < n + hi."""
    n = v.shape[axis]
    head = (slice(None),) * (axis % v.ndim)
    if lo > n or hi > n:    # short blocks: the taps wrap more than once
        k = -(-lo // n)
        tiled = np.concatenate([v] * (k + 1 - (-hi // n)), axis=axis)
        return tiled[head + (slice(k * n - lo, (k + 1) * n + hi),)]
    return np.concatenate([v[head + (slice(n - lo, None),)], v,
                           v[head + (slice(None, hi),)]], axis=axis)


def _periodic_window(v, start, stop):
    """Entries start..stop-1 of v extended periodically along the last
    axis: ``out[..., i] == v[..., (start + i) % n]``.  A view of v when
    they lie within it."""
    n = v.shape[-1]
    if 0 <= start and stop <= n:
        return v[..., start:stop]
    if start <= 0 and stop >= n:
        return _wrap_pad(v, -start, stop - n)
    return np.take(v, np.arange(start, stop) % n, axis=-1)


def analysis_taps(v, masks, lo=0, hi=None):
    """Per tap of each mask, the strided view of v that the tap reads for
    the outputs lo..hi-1 (default all n // 2) of one periodic analysis step
    along the last axis.

    Yields ``(k, c, view)`` in mask order, then tap order, where k indexes
    ``masks``, c is the tap value and ``view[..., l - lo] == v[..., (2l +
    t) % n]`` for the tap's index t and lo <= l < hi.  All views share one
    window of v (``_periodic_window``): v itself when the outputs read no
    entry across its ends, else a copy of the entries they read.
    """
    hi = v.shape[-1] // 2 if hi is None else hi
    first = min(m.support[0] for m in masks)
    window = _periodic_window(v, 2 * lo + first,
                              2 * hi - 1 + max(m.support[1] for m in masks))
    for k, mask in enumerate(masks):
        for s, c in enumerate(mask.taps.tolist(), mask.offset - first):
            yield k, c, window[..., s: s + 2 * (hi - lo) - 1: 2]


# Outputs of a level step that one pass over the taps fills: each tap adds
# into them through one scratch block of this many entries per row, so
# that no temporary is as long as the step.  Inside interval-1d requests
# (cdf33, one BLAS thread) a 2^18 dwt took 7.4, 6.7, 6.9 and 7.8 ms with
# blocks of 4096, 8192, 16384 and 32768 (9.8 ms with a temporary per tap),
# a 2^14 one 0.53, 0.42, 0.42 and 0.41 ms.
STEP_BLOCK = 8192


def _add_taps(outs, taps):
    """Fill each outs[k] (the same length along the last axis) with the
    sum, from zero and in tap order, of c * view over the (k, c, view) of
    ``taps(lo, hi)``, the taps of its outputs lo..hi-1, a block of
    STEP_BLOCK outputs at a time through one reused scratch block.  Each
    output has the bits of ``outs[k] += c * view`` over full-length views
    from zeros."""
    n = outs[0].shape[-1]
    scratch = np.empty(outs[0].shape[:-1] + (min(n, STEP_BLOCK),),
                       dtype=outs[0].dtype)
    for lo in range(0, n, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, n)
        term, block = scratch[..., :hi - lo], [o[..., lo:hi] for o in outs]
        for b in block:
            b[...] = 0.0
        for k, c, view in taps(lo, hi):
            np.multiply(c, view, out=term)
            block[k] += term


def _analysis_step(v, h: Mask, g: Mask, coarse, detail):
    """One filter-bank analysis step with periodic wrap-around: the
    ``analysis_taps`` of each block of outputs added in order from zero
    (``_add_taps``) into coarse and detail (n // 2 each along the last
    axis), which are returned.  Only the first and last blocks copy the few
    entries they read across the ends of v.

    Operates on the last axis; leading axes are batched.
    """
    _add_taps((coarse, detail),
              lambda lo, hi: analysis_taps(v, (h, g), lo, hi))
    return coarse, detail


def synthesis_taps(v, w, h: Mask, g: Mask):
    """Per tap of h (on the coarse part v), then of g (on the detail part
    w), the view that the tap adds into the outputs of its parity in one
    periodic synthesis step along the last axis.

    Polyphase form: a tap at index t feeds the outputs of parity p = t % 2,
    out[2k + p] += c * coarse[(k - (t - p) / 2) % half].  Yields
    ``(p, c, view)`` with ``view[..., k]`` that coarse entry, from one
    wrap-padded copy of each part.
    """
    half = v.shape[-1]
    for mask, coarse in ((h, v), (g, w)):
        first, last = mask.support
        lo = max(0, last // 2)     # t // 2 = (t - p) / 2 for the parity p
        cp = _wrap_pad(coarse, lo, max(0, -(first // 2)))
        for t, c in enumerate(mask.taps.tolist(), first):
            s = lo - t // 2
            yield t % 2, c, cp[..., s: s + half]


def _synthesis_step(v, w, h: Mask, g: Mask):
    """One filter-bank synthesis step with periodic wrap-around (last axis):
    the ``synthesis_taps`` added in order from zero into the outputs of
    their parity (``_add_taps``), so each output sums its terms in a fixed
    order."""
    half = v.shape[-1]
    out = np.empty(v.shape[:-1] + (2 * half,), dtype=np.result_type(v, w))
    views = list(synthesis_taps(v, w, h, g))
    _add_taps([out[..., 0::2], out[..., 1::2]],
              lambda lo, hi: [(p, c, view[..., lo:hi]) for p, c, view in views])
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
        # the cached matrices of this plan's masks and side (the entry of
        # ``_matrix_cache``), shared by every plan of the same
        object.__setattr__(self, "_matrices", _matrix_cache.setdefault(
            (self.bank.masks_key, self.side), {}))

    @property
    def analysis_masks(self):
        b = self.bank
        return (b.h_dual, b.g_dual) if self.side == "primal" else (b.h, b.g)

    @property
    def synthesis_masks(self):
        b = self.bank
        return (b.h, b.g) if self.side == "primal" else (b.h_dual, b.g_dual)


# Levels of at most this many points run as one cached sparse product.
# The product beats the step at every length (2^10: 10 us against 35 us;
# 2^18: 2.1 ms against 3.2 ms, cdf33), but its matrices cost memory and a
# build of about 20 step applies, and both double with each level.  On
# the interval-1d benchmark (mean of seeds 401-402, one BLAS thread) the cutoffs
# 2^12, 2^14, 2^16 and 2^18 gave reduced_s 0.095, 0.095, 0.116 and
# 0.155 s and peak_rss_mb 136, 143, 161 and 253.
SPARSE_MAX_N = 2**12


def _level_matrix(plan: TransformPlan, n, synthesis):
    """The (n, n) CSR of one level step of n points: analysis maps v to
    [coarse, detail], synthesis maps [coarse, detail] to v.  Its entries
    are read off the step's own taps (``analysis_taps``, ``synthesis_taps``)
    run on the indices, and each row keeps them in the order the step adds
    them.  scipy's CSR product sums a row's terms in stored order from
    zero, so the product has the bits of the step, as long as scipy's
    compiled loop rounds each product before the add, as the step does.
    A scipy build that fuses them (FMA contraction, e.g. GCC's default on
    aarch64) differs by round-off; the bit tests in ``tests/test_dwt.py``
    were run with scipy 1.17 on x86-64 Linux only."""
    M = plan._matrices.get((synthesis, n))
    if M is None:
        half, idx = n // 2, np.arange(n)
        if synthesis:   # tap k adds into the outputs 2 l + k
            taps = synthesis_taps(idx[:half], idx[half:], *plan.synthesis_masks)
            first, step = 1, 2
        else:           # tap k adds into the outputs k half + l
            taps = analysis_taps(idx, plan.analysis_masks)
            first, step = half, 1
        rows, cols, vals = zip(*((first * k + step * idx[:half], view,
                                  np.full(half, c)) for k, c, view in taps))
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        M = scipy.sparse.csr_matrix(
            (np.concatenate(vals)[order],
             np.concatenate(cols)[order].astype(np.int32), indptr),
            shape=(n, n))
        M = plan._matrices.setdefault((synthesis, n), M)
    return M


def _level_product(plan: TransformPlan, x, synthesis):
    """One level step along the last axis of x by its ``_level_matrix``, in
    C order as the step returns it: a dense product of the result (a
    transform matrix of ``_dense_matrix``, say) takes its bits from the
    layout."""
    M = _level_matrix(plan, x.shape[-1], synthesis)
    if x.ndim == 1:
        return M @ x
    return np.ascontiguousarray(
        (M @ x.reshape(-1, x.shape[-1]).T).T).reshape(x.shape)


def _dwt_steps(v, plan: TransformPlan):
    """The forward transform as a cascade of J analysis steps; those of at
    most SPARSE_MAX_N points are sparse products.  The longer steps write
    their detail straight into the result and their coarse part into one
    of two buffers (n / 2 and n / 4) in turn, so the cascade allocates its
    result and those only."""
    h, g = plan.analysis_masks
    n = v.shape[-1]
    out = np.empty_like(v)
    bufs = [np.empty(v.shape[:-1] + (n // d,), dtype=v.dtype)
            for d in (2, 4)] if n > SPARSE_MAX_N else None
    cur = v
    for i, j in enumerate(range(plan.J, 0, -1)):
        half = 2 ** (j - 1)
        if 2**j <= SPARSE_MAX_N:
            step = _level_product(plan, cur, False)
            cur, out[..., half:2 * half] = step[..., :half], step[..., half:]
        else:
            cur = _analysis_step(cur, h, g, bufs[i % 2][..., :half],
                                 out[..., half:2 * half])[0]
    out[..., 0] = cur[..., 0]
    return out


def _idwt_steps(w, plan: TransformPlan):
    """The inverse transform as a cascade of J synthesis steps; those of at
    most SPARSE_MAX_N points are sparse products."""
    h, g = plan.synthesis_masks
    cur = w[..., :1].copy()
    for j in range(1, plan.J + 1):
        detail = w[..., 2 ** (j - 1): 2**j]
        if 2**j <= SPARSE_MAX_N:
            cur = _level_product(
                plan, np.concatenate([cur, detail], axis=-1), True)
        else:
            cur = _synthesis_step(cur, detail, h, g)
    return cur


# Transforms of at most this many points run as one dense product.
DENSE_MAX_N = 64

# Transform matrices by the bank's masks and side, then by what they are:
# dense transforms by (direction, J), at most 2 x 6 of 32 KiB or less, and
# sparse level steps by (direction, n), 0.62 MB a direction for all levels
# of up to 2^12 points (cdf33; 0.82 MB for db4).  A plan looks its entry up
# once (``TransformPlan._matrices``).
_matrix_cache = {}


def _dense_matrix(plan: TransformPlan, steps):
    """M with ``v @ M == steps(v, plan)`` up to round-off: row k is the
    transform of the k-th unit vector.  Keyed by the masks themselves, not
    the family name, which a custom bank can share."""
    M = plan._matrices.get((steps, plan.J))
    if M is None:
        M = steps(np.eye(2**plan.J), plan)
        M.setflags(write=False)
        M = plan._matrices.setdefault((steps, plan.J), M)
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
