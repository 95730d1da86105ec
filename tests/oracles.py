"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately naive plain numpy (nested loops where
feasible), sharing no code with the package so agreement is meaningful.
"""

import math

import numpy as np
from scipy.special import erf


# ---------------------------------------------------------------------------
# tensor-core references
# ---------------------------------------------------------------------------

def matmul_loops(a, b):
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for jj in range(p):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, jj]
            out[i, jj] = acc
    return out


def conv2d_loops(x, w, b=None, stride=1, pad=0):
    cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for i in range(oh):
            for jj in range(ow):
                acc = 0.0
                for c in range(cin):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += xp[c, i * stride + ki, jj * stride + kj] * w[o, c, ki, kj]
                out[o, i, jj] = acc + (b[o] if b is not None else 0.0)
    return out


def conv1d_loops(x, w, b=None, stride=1, pad=0):
    cin, ln = x.shape
    cout, cin2, k = w.shape
    assert cin == cin2
    xp = np.pad(x, ((0, 0), (pad, pad)))
    on = (ln + 2 * pad - k) // stride + 1
    out = np.zeros((cout, on))
    for o in range(cout):
        for i in range(on):
            acc = 0.0
            for c in range(cin):
                for kk in range(k):
                    acc += xp[c, i * stride + kk] * w[o, c, kk]
            out[o, i] = acc + (b[o] if b is not None else 0.0)
    return out


def conv3d_loops(x, w, b=None, stride=1, pad=0):
    cin, d, h, wd = x.shape
    cout, cin2, kd, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    od = (d + 2 * pad - kd) // stride + 1
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, od, oh, ow))
    for o in range(cout):
        for zi in range(od):
            for i in range(oh):
                for jj in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for kz in range(kd):
                            for ki in range(kh):
                                for kj in range(kw):
                                    acc += xp[c, zi * stride + kz, i * stride + ki,
                                              jj * stride + kj] * w[o, c, kz, ki, kj]
                    out[o, zi, i, jj] = acc + (b[o] if b is not None else 0.0)
    return out


def depthwise2d_loops(x, w, b=None, stride=1, pad=0):
    c, h, wd = x.shape
    c2, m, kh, kw = w.shape
    assert c == c2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((c * m, oh, ow))
    for ci in range(c):
        for mi in range(m):
            for i in range(oh):
                for jj in range(ow):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += xp[ci, i * stride + ki, jj * stride + kj] * w[ci, mi, ki, kj]
                    out[ci * m + mi, i, jj] = acc + (b[ci * m + mi] if b is not None else 0.0)
    return out


def avg_pool2d_loops(x, k, stride, pad=0):
    c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c, oh, ow))
    for ci in range(c):
        for i in range(oh):
            for jj in range(ow):
                out[ci, i, jj] = xp[ci, i * stride:i * stride + k,
                                    jj * stride:jj * stride + k].sum() / (k * k)
    return out


def avg_pool_loops(x, window, stride, pad=0):
    """Any number of spatial axes; per-axis window and stride tuples."""
    c = x.shape[0]
    xp = np.pad(x, [(0, 0)] + [(pad, pad)] * (x.ndim - 1))
    out_sp = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[1:], window, stride))
    out = np.zeros((c,) + out_sp)
    for ci in range(c):
        for pos in np.ndindex(*out_sp):
            acc = 0.0
            for off in np.ndindex(*window):
                acc += xp[(ci,) + tuple(p * s + o for p, s, o in zip(pos, stride, off))]
            out[(ci,) + pos] = acc / np.prod(window)
    return out


def adaptive_bins(length, target):
    return [(math.ceil(i * length / target), math.ceil((i + 1) * length / target))
            for i in range(target)]


def adaptive_pool2d_enum(x, th, tw):
    c, h, w = x.shape
    out = np.zeros((c, th, tw))
    for ci in range(c):
        for i, (r0, r1) in enumerate(adaptive_bins(h, th)):
            for jj, (c0, c1) in enumerate(adaptive_bins(w, tw)):
                out[ci, i, jj] = x[ci, r0:r1, c0:c1].mean()
    return out


def expand_bins2d_enum(x, oh, ow):
    c, th, tw = x.shape
    out = np.zeros((c, oh, ow))
    for ci in range(c):
        for i, (r0, r1) in enumerate(adaptive_bins(oh, th)):
            for jj, (c0, c1) in enumerate(adaptive_bins(ow, tw)):
                out[ci, r0:r1, c0:c1] = x[ci, i, jj]
    return out


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def gelu_ref(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def softmax_ref(x, axis):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# scan reference
# ---------------------------------------------------------------------------

def scan_unrolled(x, a, b, c, d, backward=False):
    """Per-element unrolled recurrence, no vectorization over channels."""
    if backward:
        return scan_unrolled(x[::-1].copy(), a, b, c, d)[::-1].copy()
    T, C, L = x.shape
    n = a.shape[1]
    y = np.zeros_like(x)
    for ci in range(C):
        lam = [math.exp(min(a[ci, v], 0.0)) for v in range(n)]
        for li in range(L):
            h = [0.0] * n
            for t in range(T):
                for v in range(n):
                    h[v] = lam[v] * h[v] + b[ci, v] * x[t, ci, li]
                y[t, ci, li] = sum(c[ci, v] * h[v] for v in range(n)) + d[ci] * x[t, ci, li]
    return y


def gate_ref(a, b, c, d):
    ch, n = a.shape
    d_state = np.full(n, 1.0 / math.sqrt(n))
    d_dim = np.full(ch, 1.0 / math.sqrt(ch))
    pre = a @ d_state + (b @ c.T) @ d_dim + d
    return sigmoid_ref(pre)


# ---------------------------------------------------------------------------
# stem / block / fusion references (straight-line numpy, no package calls)
# ---------------------------------------------------------------------------

def stem_ref(view_frames, p):
    """view_frames: list of [T, 3, Hv, Wv]; p: StemParams. Returns [C, H, W]."""
    t = p.frame_count
    v = len(p.view_ids)
    cpf = p.out_channels // (v * t)
    feats = []
    for i, frames in enumerate(view_frames):
        hv, wv = frames.shape[2], frames.shape[3]
        x = (frames - 0.5).reshape(3 * t, hv, wv)
        x = depthwise2d_loops(x, p.depthwise_w[i].data, p.depthwise_b[i].data, pad=0)
        hv, wv = hv - 2, wv - 2
        # frame-grouped pointwise: per frame, mix its 3 channels into cpf outputs
        pw = p.pointwise_w[i].data
        pb = p.pointwise_b[i].data
        y = np.zeros((t * cpf, hv, wv))
        for ti in range(t):
            for o in range(cpf):
                acc = np.zeros((hv, wv))
                for ch in range(3):
                    acc += pw[ti, o, ch] * x[ti * 3 + ch]
                y[ti * cpf + o] = acc + pb[ti * cpf + o]
        y = gelu_ref(y)
        feats.append(adaptive_pool2d_enum(y, p.height, p.width))
    cat = np.concatenate(feats, axis=0)
    out = np.zeros_like(cat)
    for ti in range(t):
        for vi in range(v):
            for jj in range(cpf):
                out[ti * v * cpf + vi * cpf + jj] = cat[vi * t * cpf + ti * cpf + jj]
    return out


def channel_linear_ref(x, w, b):
    c, h, wd = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for jj in range(wd):
            out[:, i, jj] = x[:, i, jj] @ w + b
    return out


def block_ref(x, p, grid=3, single_direction=False, local_only=False):
    """Straight-line dual-path block on [C, H, W]; p: BlockParams."""
    c, h, w = x.shape
    t = p.frame_count
    group = c // t
    spatial = h * w

    z = x.reshape(c, spatial).T                       # [L, C]
    z = conv1d_loops(z, p.conv1d_w.data, p.conv1d_b.data, pad=1)
    z = gelu_ref(z)
    seq = z.T.reshape(t, group, spatial)

    a_f = p.ssm.A.data[:group]
    b_f = p.ssm.B.data[:group]
    c_f = p.ssm.C_mat.data[:group]
    d_f = p.ssm.D.data[:group]
    local = scan_unrolled(seq, a_f, b_f, c_f, d_f).reshape(c, h, w)
    local = avg_pool2d_loops(local, 3, 1, pad=1)
    local = channel_linear_ref(local, p.local_w.data, p.local_b.data)

    glob = scan_unrolled(seq, p.A_bwd.data, b_f, c_f, p.D_bwd.data,
                         backward=not single_direction).reshape(c, h, w)
    if local_only:
        glob = avg_pool2d_loops(glob, 3, 1, pad=1)
    else:
        gh, gw = min(grid, h), min(grid, w)
        glob = expand_bins2d_enum(adaptive_pool2d_enum(glob, gh, gw), h, w)
    glob = channel_linear_ref(glob, p.global_w.data, p.global_b.data)

    gate = gate_ref(p.ssm.A.data, p.ssm.B.data, p.ssm.C_mat.data, p.ssm.D.data)
    merged = (local + glob) * gate[:, None, None]
    projected = channel_linear_ref(merged, p.out_w.data, p.out_b.data)
    return x + float(p.gamma.data.reshape(-1)[0]) * projected


def attention_ref(h1, h2, h3, p):
    """Straight-line shared attention; p: GateParams."""
    c, h, w = h1.shape
    d = h * w
    cat = np.concatenate([h1, h2, h3], axis=0).reshape(3 * c, d)
    q = p.wq.data.reshape(c, 3 * c) @ cat + p.bq.data[:, None]
    k = p.wk.data.reshape(c, 3 * c) @ cat + p.bk.data[:, None]
    v = p.wv.data.reshape(c, 3 * c) @ cat + p.bv.data[:, None]
    scores = q @ k.T / math.sqrt(d)
    attn = softmax_ref(scores, axis=1)
    return (attn @ v).reshape(c, h, w)


def task_fuse_ref(h1, h2, h3, s, p, r):
    """Straight-line per-task gated fusion (train-mode batchnorm)."""
    c, h, w = s.shape
    pre = depthwise2d_loops(s, p.gate_w[r].data, p.gate_b[r].data, pad=1)  # [3C]
    mean = pre.mean(axis=(1, 2))
    var = pre.var(axis=(1, 2))
    xhat = (pre - mean[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5)
    pre = xhat * p.bn_scale[r].data[:, None, None] + p.bn_shift[r].data[:, None, None]
    g = sigmoid_ref(pre)
    feats = [h1, h2, h3]
    out = np.zeros_like(h1)
    for i in range(3):
        for ci in range(c):
            out[ci] += feats[i][ci] * g[ci * 3 + i]
    return out
