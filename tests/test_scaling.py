"""Power-of-two unit rescaling of the safe-distance rule, in both engines.

Multiplying by a power of two is exact in binary floating point, barring
overflow and underflow, and +, -, *, / of exactly scaled operands round
the exactly scaled result.  So, with no oracle:

- lengths by c = 2**k: speeds, accelerations, positions and
  vehicle_length scale by c, and d_min and the margin must scale by
  exactly c;
- times by s = 2**k: rho scales by s, speeds by 1/s and accelerations by
  1/s**2, and d_min and the margin (positions unchanged) must not move.

Both hold only if every square is correctly rounded: squared by libm pow,
d_min missed by an ulp on a few draws.  The draws keep every scaled value
normal and finite.
"""
import numpy as np

from rsskit.batch import margins, safe_distances
from rsskit.core import RssParams, ScenarioState
from rsskit.rule import margin, safe_distance

KS = (10, -10, -40)
PARAMS, PAIRS = 2_000, 10  # 20,000 parameter sets and speed pairs


def draws():
    """Seeded (params, v_r, v_f, x_r, x_f), the last four arrays of PAIRS."""
    rng = np.random.default_rng(2024)
    for _ in range(PARAMS):
        rho, a_max, a_min, extra = rng.uniform([0.01, 0.0, 0.1, 0.01], [3.0, 10.0, 10.0, 10.0])
        length = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 10.0)
        params = RssParams(rho, a_max, a_min, a_min + extra, length)
        v = np.where(rng.random((2, PAIRS)) < 0.5, rng.uniform(0.0, 60.0, (2, PAIRS)),
                     10.0 ** rng.uniform(-3.0, 3.0, (2, PAIRS)))
        x_r = rng.uniform(-100.0, 100.0, PAIRS)
        yield params, v[0], v[1], x_r, x_r + rng.uniform(0.0, 200.0, PAIRS)


def outputs(params, v_r, v_f, x_r, x_f):
    """d_min and the margin of each pair, from the scalar and the array rule."""
    states = [ScenarioState(*s) for s in zip(x_f.tolist(), v_f.tolist(), x_r.tolist(), v_r.tolist())]
    d_min, ok = safe_distances(params, v_r, v_f)
    (m,), (m_ok,) = margins(params, np.array([x_r, x_f]), np.array([v_r, v_f]))
    assert ok.all() and m_ok.all()
    return {
        "rule.safe_distance": [safe_distance(params, s.v_r, s.v_f) for s in states],
        "rule.margin": [margin(params, s) for s in states],
        "batch.safe_distances": d_min.tolist(),
        "batch.margins": m.tolist(),
    }


def lengths_by(params, v_r, v_f, x_r, x_f, c):
    scaled = RssParams(params.rho, params.a_max * c, params.a_brake_min * c,
                       params.a_brake_max * c, params.vehicle_length * c)
    return scaled, v_r * c, v_f * c, x_r * c, x_f * c


def times_by(params, v_r, v_f, x_r, x_f, s):
    scaled = RssParams(params.rho * s, params.a_max / (s * s), params.a_brake_min / (s * s),
                       params.a_brake_max / (s * s), params.vehicle_length)
    return scaled, v_r / s, v_f / s, x_r, x_f


def test_d_min_and_the_margin_scale_exactly():
    misses, checks = [], 0
    for case in draws():
        base = outputs(*case)
        for k in KS:
            c = 2.0 ** k
            for rescaling, got, want in (
                    ("lengths", outputs(*lengths_by(*case, c)), {n: [c * y for y in ys] for n, ys in base.items()}),
                    ("times", outputs(*times_by(*case, c)), base)):
                for name in base:
                    checks += len(want[name])
                    misses += [(rescaling, k, name, case[0], j) for j, (a, b) in
                               enumerate(zip(got[name], want[name])) if a != b]
    assert checks == len(base) * 2 * len(KS) * PARAMS * PAIRS
    assert misses == [], f"{len(misses)} of {checks} checks missed, first {misses[:3]}"
