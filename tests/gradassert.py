"""The tests' gradient assertion: ``mmtl.gradcheck.check_gradients`` held to a
bound on the relative error."""

from mmtl.gradcheck import check_gradients

TOL = 1e-4


def assert_gradients_close(f, params, tol: float = TOL, **kw):
    """``check_gradients(f, params, **kw)``; AssertionError naming every tensor
    whose relative error reaches ``tol``."""
    errors = check_gradients(f, params, **kw)
    bad = {k: v for k, v in errors.items() if v >= tol}
    if bad:
        raise AssertionError(f"gradient check failed (tol {tol}): {bad}")
    return errors
