"""Brute-force references that only tests run: the equal-rate split by
bisection, and two-channel power allocation by grid search.

Neither reuses a closed-form answer. Each takes its arguments as given:
the engine functions they are checked against hold the argument rules.
"""

import numpy as np

from swipt_relay.allocator import rate_terms


def rho_by_bisection(g_sq, cfg, tol=1e-12):
    """Locate the equal-rate split by bisection on rho over [0, 1].

    The decode term vanishes at rho = 0 and the forward term at rho = 1, so
    their difference brackets a sign change; the root depends on neither the
    power, probed at 1 mW, nor the incoming gain, fixed at 1 here. Raises
    ``ValueError`` when the pair is degenerate, so that no sign change is
    bracketed, rather than return a root that is none.
    """

    def gap(rho):
        term_decode, term_forward = rate_terms(1.0, g_sq, rho, 1.0, cfg)
        return term_decode - term_forward

    lo, hi = 0.0, 1.0
    if not (gap(lo) < 0.0 < gap(hi)):
        raise ValueError("equal-rate condition not bracketed; the pair is degenerate")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats: no finer root
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def power_by_grid(gammas, p_max, resolution=10**6):
    """Two-channel power allocation by dense grid search: P1 sweeps
    {0, p_max/resolution, ..., p_max}, P2 takes the remainder, and the summed
    rate is maximized. Accurate to one grid step."""
    gam = np.asarray(gammas, dtype=float)
    p1 = np.linspace(0.0, p_max, resolution + 1)
    objective = np.log1p(gam[0] * p1) + np.log1p(gam[1] * (p_max - p1))
    best = int(np.argmax(objective))
    return np.array([p1[best], p_max - p1[best]])
