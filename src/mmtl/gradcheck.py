"""Central finite-difference gradient verification.

Used both by the test suite and by the ``gradcheck`` CLI command. The
numerical probe perturbs tensor entries by +-DEFAULT_H and compares the
resulting slope against the analytic gradient produced by the tape.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .tensor import Tape, Tensor, backward

DEFAULT_H = 1e-5


def numerical_grad(f: Callable[[], Tensor], t: Tensor,
                   elements: Sequence[int]) -> np.ndarray:
    """Central differences of scalar f() w.r.t. selected flat entries of t."""
    flat = t.data.reshape(-1)
    grad = np.zeros(flat.size)
    for i in elements:
        orig = flat[i]
        flat[i] = orig + DEFAULT_H
        fp = f().item()
        flat[i] = orig - DEFAULT_H
        fm = f().item()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * DEFAULT_H)
    return grad.reshape(t.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1); tolerant of near-zero gradients."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(f: Callable[[], Tensor], params: Dict[str, Tensor],
                    max_elements: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None,
                    corrupt: Optional[str] = None) -> Dict[str, float]:
    """Compare analytic and numerical gradients of scalar-valued f().

    Returns {param name: max relative error}. With ``max_elements``, only a
    random subset of entries per tensor is probed (full probe otherwise).
    ``corrupt`` names a tensor whose analytic gradient is deliberately
    perturbed; used as a negative control of the checker itself.
    """
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    backward(tape, loss)
    analytic = {}
    for name, p in params.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        if corrupt == name:
            g = g + 1.0
        analytic[name] = g

    errors = {}
    for name, p in params.items():
        n = p.data.size
        if max_elements is not None and n > max_elements:
            if rng is None:
                rng = np.random.default_rng(0)
            elements = rng.choice(n, size=max_elements, replace=False)
        else:
            elements = np.arange(n)
        num = numerical_grad(f, p, elements=elements)
        ana = np.zeros(n)
        ana[elements] = analytic[name].reshape(-1)[elements]
        errors[name] = relative_error(ana.reshape(p.shape), num)
    return errors
