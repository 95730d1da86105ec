"""State-space temporal machinery: per-channel linear scans over the frame
axis and the sigmoid channel gate derived from the scan parameters.

The recurrence, per channel c and spatial position l, with n-dimensional
hidden state h:

    h_t = lam_c * h_{t-1} + b_c * x_t[c, l],    lam_c = exp(min(a_c, 0))
    y_t = <c_c, h_t> + d_c * x_t[c, l]

The transition exponent is clamped at zero so the hidden state is bounded
for any parameter value; at a_c = 0 the recurrence degenerates to a running
sum, which pins down the semantics exactly. Where a >= 0 the transition is
constant, so those entries of A receive exactly zero gradient.

The parameters do not depend on the input, so unrolling the recurrence gives
a causal convolution over frames, which is how ``scan`` computes it:

    y_t = sum_{k=0}^{t} K[k, c] * x_{t-k}[c, l]
    K[k, c] = sum_n b_cn c_cn lam_cn^k  +  [k == 0] d_c

The gate combines the parameter matrices into one weight per channel. For
R rows it is sigmoid(A u_n + B C^T u_R + D), with u_k the all-ones vector
scaled to unit norm, which reduces to row and column sums:

    gate = sigmoid(A.sum(1) / sqrt(n) + B @ C.sum(0) / sqrt(R) + D)
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import DimensionError
from .tensor import Tensor, accumulate, param, record


class ScanDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def init_transition(channels: int, n: int, rng: np.random.Generator) -> Tensor:
    """Transition exponents A [channels, n], decays exp(a) in (0.55, 0.95)."""
    return param(rng.uniform(-0.6, -0.05, size=(channels, n)))


def compute_gate(A: Tensor, B: Tensor, C: Tensor, D: Tensor) -> Tensor:
    """Per-channel temporal weight in (0, 1) from A, B, C [R, n] and D [R],
    in the closed form given in the module docstring."""
    if A.ndim != 2 or B.shape != A.shape or C.shape != A.shape or D.shape != A.shape[:1]:
        raise DimensionError(f"compute_gate: A, B, C must share one [R, n] shape and "
                             f"D be [R]; got {A.shape}, {B.shape}, {C.shape}, {D.shape}")
    rows, n = A.shape
    a_scale, bc_scale = 1.0 / math.sqrt(n), 1.0 / math.sqrt(rows)
    c_sum = C.data.sum(axis=0)                              # [n]
    out = Tensor(expit(A.data.sum(axis=1) * a_scale + (B.data @ c_sum) * bc_scale + D.data))

    def back(g):
        gp = g * out.data * (1.0 - out.data)                # d loss / d preactivation
        accumulate(A, np.broadcast_to((gp * a_scale)[:, None], A.shape))
        accumulate(B, np.outer(gp * bc_scale, c_sum))
        accumulate(C, np.broadcast_to((gp @ B.data) * bc_scale, C.shape))
        accumulate(D, gp)

    return record("ssm_gate", (A, B, C, D), out, back)


@functools.lru_cache(maxsize=16)
def _lags(frames: int) -> np.ndarray:
    """Read-only lags[k, t, s] = [t - s == k]: maps a kernel over lags to the
    causal [t, s] convolution matrix and, the other way, sums a [t, s] matrix
    along diagonals."""
    k = np.arange(frames)
    lags = (k[:, None, None] == k[None, :, None] - k[None, None, :]).astype(np.float64)
    lags.flags.writeable = False
    return lags


def _accumulate_rows(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to the leading ``len(g)`` rows of ``t.grad``: zero-padded to
    the full shape and handed to ``accumulate``, as ``t.grad`` may be read-only
    (the gate's gradient of A is a broadcast view)."""
    if t.requires_grad and len(g) < len(t.data):
        g = np.concatenate([g, np.zeros((len(t.data) - len(g),) + g.shape[1:])])
    accumulate(t, g)


def scan(x: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor,
         direction: ScanDirection = ScanDirection.FORWARD) -> Tensor:
    """Run the linear recurrence over the temporal axis (axis 1) of x
    [N, T, C', L], as the causal convolution over frames given in the module
    docstring. The samples are independent: each channel's Toeplitz matrix
    multiplies all N*L of its sequences in one matmul.

    A, B, C are [R, n] and D is [R] with R >= C': the scan reads the leading C'
    rows of each and accumulates gradients into those rows only, so a block
    scans one frame group with its C-row parameters and no slicing op.

    The backward direction reverses the frames inside this one op: it runs the
    forward arithmetic on a reversed copy of x and reverses the result (and,
    in the backward pass, the incoming and outgoing gradients), so it equals
    reverse -> forward scan -> reverse bit-exactly.
    """
    if x.ndim != 4:
        raise DimensionError(f"scan: x must be [N, T, C, L], got {x.shape}")
    n, T, ch, length = x.shape
    if A.ndim != 2 or B.ndim != 2 or C.ndim != 2 or D.ndim != 1:
        raise DimensionError(f"scan: A, B, C must be [R, n] and D [R]; got "
                             f"{A.shape}, {B.shape}, {C.shape}, {D.shape}")
    if min(A.shape[0], B.shape[0], C.shape[0], D.shape[0]) < ch:
        raise DimensionError(f"scan: x has {ch} channels, params have rows "
                             f"{A.shape[0]}, {B.shape[0]}, {C.shape[0]}, {D.shape[0]}")
    if not A.shape[1] == B.shape[1] == C.shape[1]:
        raise DimensionError(f"scan: state widths differ: A {A.shape}, B {B.shape}, "
                             f"C {C.shape}")
    step = -1 if direction is ScanDirection.BACKWARD else 1

    def channel_major(v: np.ndarray) -> np.ndarray:
        """[N, T, C', L] in scan order -> [C', T, N*L]. The frames are put in
        scan order in a contiguous array first, so both directions hand the
        matmul the same layout."""
        return np.ascontiguousarray(v[:, ::step]).transpose(2, 1, 0, 3).reshape(
            ch, T, n * length)

    def batch_major(v: np.ndarray) -> np.ndarray:
        """The inverse of channel_major."""
        return v.reshape(ch, T, n, length).transpose(2, 1, 0, 3)[:, ::step]

    a, b, c = A.data[:ch], B.data[:ch], C.data[:ch]
    lam = np.exp(np.minimum(a, 0.0))                        # [C', n]
    k = np.arange(T)
    powers = lam[None] ** k[:, None, None]                  # [T, C', n]: lam^k
    kernel = np.einsum("kcn,cn->kc", powers, b * c)         # [T, C']: K[k, c]
    kernel[0] += D.data[:ch]
    lags = _lags(T)
    conv = np.tensordot(kernel, lags, axes=(0, 0))          # [C', T, T]: K[t - s, c]
    xc = channel_major(x.data)                              # [C', T, N*L]
    out = Tensor(batch_major(conv @ xc))
    a_open = (a < 0.0).astype(np.float64)   # d lam / d a = lam, zero where clamped

    def back(g):
        gc = channel_major(g)
        gx = conv.transpose(0, 2, 1) @ gc                   # anti-causal correlation
        gk = np.tensordot(lags, gc @ xc.transpose(0, 2, 1), axes=([1, 2], [1, 2]))
        q = np.einsum("kc,kcn->cn", gk, powers)             # sum_k gK[k] lam^k
        r = np.einsum("kc,kcn->cn", gk * k[:, None], powers)  # sum_k gK[k] k lam^k
        accumulate(x, batch_major(gx))
        _accumulate_rows(A, b * c * r * a_open)
        _accumulate_rows(B, c * q)
        _accumulate_rows(C, b * q)
        _accumulate_rows(D, gk[0])

    return record("ssm_scan", (x, A, B, C, D), out, back)
