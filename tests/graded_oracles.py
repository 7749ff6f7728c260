"""Graded constructions that only tests call, kept verbatim from ``graded``.

``direct_sum`` is the (sum, maps) wrapper of ``graded.indexed_module`` that
earlier callers used; ``window_of_module`` reads a canonical module on a
window as a ``WindowModule``, the input of ``graded.canonical_from_window``.
"""

from so3alg.errors import SchemaError
from so3alg.graded import GradedModule, WindowModule, degree_runs, indexed_module


def direct_sum(modules) -> tuple[GradedModule, list[list[int]]]:
    """Direct sum with index bookkeeping.

    Returns (sum, maps) where maps[k][i] is the summand index in the sum of
    summand i of modules[k].
    """
    modules = list(modules)
    if not modules:
        raise SchemaError("direct sum of empty family needs a ring")
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise SchemaError("direct sum over mixed rings")
    out, _, pos = indexed_module(
        ring, [(s, (k, i)) for k, m in enumerate(modules) for i, s in enumerate(m.summands)]
    )
    return out, [[pos[(k, i)] for i in range(len(m.summands))] for k, m in enumerate(modules)]


def window_of_module(m: GradedModule, window) -> WindowModule:
    lo = window[0]
    step = m.ring.step
    runs = degree_runs(window, step, [(m, 0)])
    signs, acts = {}, {}
    for t, n in runs.items():
        if m.dim(t):
            signs[t] = [m.basis_sign(i, a) for i, a in m.basis(t)]
            bottom = t - (n - 1) * step
            if bottom - step >= lo:
                acts[t] = m.action_matrix(bottom)
    return WindowModule(m.ring, window, runs, signs, acts)
