"""Shared closed forms and finite-difference helpers for the test suite.

The closed forms here are the independent oracles: plain math expressions
of each catalog surface, differentiated numerically where a test needs
derivative values that must not come from the jet machinery under test.
"""

import math

import numpy as np

# closed-form graph functions, keyed by catalog name; "scherk" also takes
# arrays, as the solver's Dirichlet data
CLOSED_FORMS = {
    "plane": lambda x, y: 0.5 * x - 0.25 * y + 1.0,
    "scherk": lambda x, y: (np.log(np.cos(np.asarray(y, dtype=float)))
                            - np.log(np.cos(np.asarray(x, dtype=float)))),
    "helicoid": lambda x, y: math.atan2(y, x),
    "catenoid": lambda x, y: math.acosh(math.hypot(x, y)),
    "bi_wave": lambda x, y: math.sinh(x + y),
    "bi_wave_minus": lambda x, y: math.sinh(x - y),
    "nonminimal_x2": lambda x, y: x * x,
}

# 1-D central-difference weights (offset, weight/h^order) for orders 0..3
_WEIGHTS = (
    ((0, 1.0),),
    ((-1, -0.5), (1, 0.5)),
    ((-1, 1.0), (0, -2.0), (1, 1.0)),
    ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
)


def central_partial(f, x, y, i, j, h=1e-4):
    """Central finite-difference estimate of d^i_x d^j_y f at (x, y)."""
    total = 0.0
    for ox, wx in _WEIGHTS[i]:
        for oy, wy in _WEIGHTS[j]:
            total += wx * wy * f(x + ox * h, y + oy * h)
    return total / h ** (i + j)


def interior_points(spec, count, seed, shrink=0.2):
    """Seeded points in the centered part of a surface's domain."""
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = spec.domain
    mx, my = shrink * (x1 - x0), shrink * (y1 - y0)
    pts = []
    while len(pts) < count:
        x = rng.uniform(x0 + mx, x1 - mx)
        y = rng.uniform(y0 + my, y1 - my)
        if spec.admissible(np.atleast_1d(x), np.atleast_1d(y))[0]:
            pts.append((x, y))
    return pts


def interior_batch(spec, count, seed, shrink=0.2):
    """interior_points as the coordinate arrays (x, y) of one batch."""
    pts = interior_points(spec, count, seed, shrink)
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
