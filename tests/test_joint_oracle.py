"""The separation principle, certified by a joint brute-force search.

The engine solves the joint problem (pairing, power split and source power)
in three separate steps: sorted pairing, the equal-rate split, which does
not depend on the power, and water-filling over the gains that split
leaves. Each oracle in ``swipt_relay.oracle`` checks one step against its
own brute force; none checks that the composition is the joint optimum.

At N = 2 the joint problem is small enough to search directly. The search
takes both pairings, the source power p1 of incoming subcarrier 0 on a
uniform grid of [0, P] with p2 = P - p1, and on each pair the split that
maximises the smaller of the two ``rate_terms``, by golden-section search.
It never uses the equal-rate condition or water-filling, only the model's
rate terms, so it scores the model the engine scores.

Every value the search reports is the rate of a feasible allocation, so it
must not beat ``solve``. The other way, the search can fall short of the
joint optimum by the grid's resolution, which is bounded from the search's
own samples: for a fixed pairing the best rate at power p1 is a sum of
0.5*log2(1 + gamma*p) terms, concave in p1, so on a grid cell it lies
below the lines extended from the secants of the neighbouring cells.
"""

import math

import pytest

from swipt_relay.allocator import rate_terms, solve
from swipt_relay.channel import generate_channel
from swipt_relay.model import dbm_to_mw

from conftest import make_cfg

# cells of the power grid over [0, P]
_CELLS = 200
# golden-section steps on the split: the bracket shrinks to 0.618**60, about
# 3e-13 of [0, 1]
_GOLDEN_STEPS = 60
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _best_pair_rate(h_sq: float, g_sq: float, p_mw: float, cfg) -> float:
    """The largest 0.5*min(decode, forward) over the split of one pair at
    power ``p_mw``, by golden-section search: the decode term rises with
    the split and the forward term falls, so their minimum is unimodal.
    The rate returned is one the search evaluated."""

    def score(rho: float) -> float:
        return 0.5 * min(rate_terms(h_sq, g_sq, rho, p_mw, cfg))

    lo, hi = 0.0, 1.0
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    score_a, score_b = score(a), score(b)
    for _ in range(_GOLDEN_STEPS):
        if score_a < score_b:
            lo, a, score_a = a, b, score_b
            b = lo + _INV_PHI * (hi - lo)
            score_b = score(b)
        else:
            hi, b, score_b = b, a, score_a
            a = hi - _INV_PHI * (hi - lo)
            score_a = score(a)
    return max(score_a, score_b)


def _resolution_bound(samples: list[float]) -> float:
    """An upper bound on the maximum of a concave function sampled on a
    uniform grid. On the cell [x_k, x_k+1] the function lies below the
    line through x_k-1 and x_k extended to the right, and below the line
    through x_k+1 and x_k+2 extended to the left; a line that falls toward
    the cell bounds it by its sample there."""
    bound = -math.inf
    for k in range(len(samples) - 1):
        cell = math.inf
        if k >= 1:
            cell = samples[k] + max(samples[k] - samples[k - 1], 0.0)
        if k + 2 < len(samples):
            cell = min(cell, samples[k + 1] + max(samples[k + 1] - samples[k + 2], 0.0))
        bound = max(bound, cell)
    return bound


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("p_max_dbm", [10.0, 20.0, 30.0])
def test_the_joint_search_neither_beats_solve_nor_falls_short_past_its_grid(p_max_dbm, seed):
    cfg = make_cfg(n_subcarriers=2, taps=2, p_max=dbm_to_mw(p_max_dbm))
    chan = generate_channel(cfg, seed)
    h_sq, g_sq = chan.h_sq.tolist(), chan.g_sq.tolist()
    closed = solve(chan, cfg).total_rate
    tol = 1e-9 * closed
    budget = cfg.p_max
    searches, bounds = [], []
    for perm in ((0, 1), (1, 0)):
        samples = []
        for k in range(_CELLS + 1):
            p1 = budget * k / _CELLS
            samples.append(
                _best_pair_rate(h_sq[0], g_sq[perm[0]], p1, cfg)
                + _best_pair_rate(h_sq[1], g_sq[perm[1]], budget - p1, cfg)
            )
        searches.append(max(samples))
        bounds.append(_resolution_bound(samples))
    search = max(searches)
    resolution = max(bounds) - search
    # separation loses nothing: no joint allocation beats the closed form
    assert search <= closed + tol
    # and the closed form is reached: the search misses it only by its grid
    assert closed - search <= resolution + tol
