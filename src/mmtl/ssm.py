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

The gate combines the parameter matrices into one weight per channel:

    gate = sigmoid(A @ d_state + (B @ C^T) @ d_dim + D)

where d_state and d_dim are fixed all-ones unit vectors, never trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

import numpy as np

from .errors import DimensionError
from .ops import sigmoid
from .tensor import Tensor, accumulate, add, matmul, narrow, param, record, reshape, \
    transpose


class ScanDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def unit_vector(length: int) -> Tensor:
    """All-ones vector scaled to unit Euclidean norm; fixed, not trainable."""
    return Tensor(np.full(length, 1.0 / math.sqrt(length)))


@dataclass
class SsmParams:
    """State-transition parameter set for one scan path.

    A, B, C_mat are [channels, n]; D is [channels]. A set may be assembled
    from other sets' tensors, as a block's backward scan takes B and C_mat
    from its forward set.
    """

    A: Tensor
    B: Tensor
    C_mat: Tensor
    D: Tensor
    n: int
    d_state: Tensor = field(default=None)  # type: ignore[assignment]
    d_dim: Tensor = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = self.A.shape[0]
        for name, t, shape in (("A", self.A, (c, self.n)), ("B", self.B, (c, self.n)),
                               ("C_mat", self.C_mat, (c, self.n)), ("D", self.D, (c,))):
            if t.shape != shape:
                raise DimensionError(f"SsmParams: {name} has shape {t.shape}, expected {shape}")
        if self.d_state is None:
            self.d_state = unit_vector(self.n)
        if self.d_dim is None:
            self.d_dim = unit_vector(c)

    @property
    def channels(self) -> int:
        return self.A.shape[0]

    def restrict(self, channels: int) -> "SsmParams":
        """View onto the first ``channels`` rows, for scanning channel groups.

        Gradients flow back into the corresponding rows of the full tensors.
        """
        if channels > self.channels:
            raise DimensionError(
                f"restrict: {channels} rows requested, params have {self.channels}")
        return SsmParams(
            A=narrow(self.A, 0, 0, channels),
            B=narrow(self.B, 0, 0, channels),
            C_mat=narrow(self.C_mat, 0, 0, channels),
            D=narrow(self.D, 0, 0, channels),
            n=self.n,
        )

    def tensors(self) -> Dict[str, Tensor]:
        return {"A": self.A, "B": self.B, "C_mat": self.C_mat, "D": self.D}


def init_transition(channels: int, n: int, rng: np.random.Generator) -> Tensor:
    """Transition exponents A [channels, n], decays exp(a) in (0.55, 0.95)."""
    return param(rng.uniform(-0.6, -0.05, size=(channels, n)))


def init_ssm_params(channels: int, n: int, rng: np.random.Generator) -> SsmParams:
    return SsmParams(
        A=init_transition(channels, n, rng),
        B=param(rng.normal(0.0, 0.3, size=(channels, n))),
        C_mat=param(rng.normal(0.0, 0.3, size=(channels, n))),
        D=param(np.zeros(channels)),
        n=n,
    )


def compute_gate(p: SsmParams) -> Tensor:
    """Per-channel temporal weight in (0, 1): sigmoid of the combined params."""
    c = p.channels
    a_term = reshape(matmul(p.A, reshape(p.d_state, (p.n, 1))), (c,))
    bc = matmul(p.B, transpose(p.C_mat, (1, 0)))
    bc_term = reshape(matmul(bc, reshape(p.d_dim, (c, 1))), (c,))
    return sigmoid(add(add(a_term, bc_term), p.D))


def _lags(frames: int) -> np.ndarray:
    """lags[k, t, s] = [t - s == k]: maps a kernel over lags to the causal [t, s]
    convolution matrix and, the other way, sums a [t, s] matrix along diagonals."""
    k = np.arange(frames)
    return (k[:, None, None] == k[None, :, None] - k[None, None, :]).astype(np.float64)


def scan(x: Tensor, p: SsmParams, direction: ScanDirection = ScanDirection.FORWARD) -> Tensor:
    """Run the linear recurrence over the leading (temporal) axis of x [T, C, L],
    as the causal convolution over frames given in the module docstring.

    The backward direction reverses the frames inside this one op: it runs the
    forward arithmetic on a contiguous reversed copy of x and reverses the
    result (and, in the backward pass, the incoming and outgoing gradients),
    so it equals reverse -> forward scan -> reverse bit-exactly.
    """
    if x.ndim != 3:
        raise DimensionError(f"scan: x must be [T, C, L], got {x.shape}")
    T, C, _ = x.shape
    if C != p.channels:
        raise DimensionError(f"scan: x has {C} channels, params have {p.channels}")
    step = -1 if direction is ScanDirection.BACKWARD else 1

    a, b, c = p.A.data, p.B.data, p.C_mat.data
    lam = np.exp(np.minimum(a, 0.0))                        # [C, n]
    k = np.arange(T)
    powers = lam[None] ** k[:, None, None]                  # [T, C, n]: lam^k
    kernel = np.einsum("kcn,cn->kc", powers, b * c)         # [T, C]: K[k, c]
    kernel[0] += p.D.data
    lags = _lags(T)
    conv = np.tensordot(kernel, lags, axes=(0, 0))          # [C, T, T]: K[t - s, c]
    xc = np.ascontiguousarray(x.data[::step]).transpose(1, 0, 2)  # [C, T, L]
    out = Tensor((conv @ xc).transpose(1, 0, 2)[::step])
    a_open = (a < 0.0).astype(np.float64)   # d lam / d a = lam, zero where clamped

    def back(g):
        gc = np.ascontiguousarray(g[::step]).transpose(1, 0, 2)  # [C, T, L]
        gx = conv.transpose(0, 2, 1) @ gc                   # anti-causal correlation
        gk = np.tensordot(lags, gc @ xc.transpose(0, 2, 1), axes=([1, 2], [1, 2]))
        q = np.einsum("kc,kcn->cn", gk, powers)             # sum_k gK[k] lam^k
        r = np.einsum("kc,kcn->cn", gk * k[:, None], powers)  # sum_k gK[k] k lam^k
        accumulate(x, gx.transpose(1, 0, 2)[::step])
        accumulate(p.A, b * c * r * a_open)
        accumulate(p.B, c * q)
        accumulate(p.C_mat, b * q)
        accumulate(p.D, gk[0])

    return record("ssm_scan", (x, p.A, p.B, p.C_mat, p.D), out, back)
