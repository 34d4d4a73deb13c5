"""The infinite d-regular tree and closed-form mixing predictions and bounds.

Houses the radial walk on the tree (``tree_rows``, with sphere sizes and L^p
norms), the cutoff location t_star = (d/(d-2)) log_{d-1} n with its Gaussian
profile, the L^p cutoff locations via the relative-entropy optimization, the
tree-based L^p lower bounds, diameter bounds (ball-volume and spectral), and
the bipartite/weakly adjusted times, and ``check_regular``, the one (n, d)
rule. graph_core, builders and the walk module import this one.

Logarithm conventions: spectral formulas use natural logs; the log n inside
the additive 3 log_{d-1} log n window terms is base 10, which pins the
threshold time at 9 for (n, d) = (12180, 6).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaDegenerate, UsageError

_CEIL_SLACK = 1e-9


def _iceil(x: float) -> int:
    """Ceiling with a tiny slack absorbing float representation error."""
    return math.ceil(x - _CEIL_SLACK)


def _log_base(x: float, base: float) -> float:
    return math.log(x) / math.log(base)


def check_regular(n: int | None, d: int):
    """UsageError unless d >= 3 and, where n is given, n > d (no simple
    d-regular graph has n <= d vertices): the one statement of the rule,
    which graph_core and builders call too."""
    if d < 3:
        raise UsageError(f"need d >= 3, got d={d}")
    if n is not None and not n > d:
        raise UsageError(f"need n > d, got n={n}, d={d}")


@dataclass(frozen=True)
class CutoffPrediction:
    """Total-variation cutoff location, window, and profile constants."""

    n: int
    d: int
    t_star: float
    window: float
    c_d: float
    rho: float


def _profile_constant(d: int) -> float:
    """c_d = (d-2)^(3/2) / (2 sqrt(d(d-1))); UsageError unless d >= 3."""
    check_regular(None, d)
    return (d - 2) ** 1.5 / (2 * math.sqrt(d * (d - 1)))


def cutoff_prediction(n: int, d: int) -> CutoffPrediction:
    """UsageError unless d >= 3 and n > d (check_regular)."""
    check_regular(n, d)
    log_n = _log_base(n, d - 1)
    return CutoffPrediction(
        n=n,
        d=d,
        t_star=d / (d - 2) * log_n,
        window=math.sqrt(log_n),
        c_d=_profile_constant(d),
        rho=2 * math.sqrt(d - 1) / d,
    )


def profile_value(s: float, d: int) -> float:
    """Gaussian cutoff profile: P(Z > c_d * s) for standard normal Z."""
    return 0.5 * math.erfc(_profile_constant(d) * s / math.sqrt(2))


def relative_entropy(beta: float, alpha: float, base: float) -> float:
    """H_base(beta || alpha) with the 0 log 0 = 0 convention."""
    if not (0 <= beta <= 1 and 0 <= alpha <= 1):
        raise UsageError(f"beta and alpha must lie in [0, 1], got beta={beta}, alpha={alpha}")
    if base <= 1:
        raise UsageError(f"base must exceed 1, got {base}")
    if alpha in (0.0, 1.0):
        if beta != alpha:
            raise AlphaDegenerate(f"alpha={alpha} with beta={beta}")
        return 0.0
    log_b = math.log(base)
    h = 0.0
    if beta > 0:
        h += beta * math.log(beta / alpha)
    if beta < 1:
        h += (1 - beta) * math.log((1 - beta) / (1 - alpha))
    return h / log_b


def _frac(p: float, which: str) -> float:
    """(p-1)/p, p/(p-1) or (p-2)/p with the p = inf limits."""
    if math.isinf(p):
        return 1.0
    if which == "pm1_over_p":
        return (p - 1) / p
    if which == "p_over_pm1":
        return p / (p - 1)
    return (p - 2) / p


@dataclass(frozen=True)
class LpPrediction:
    """L^p cutoff location and the entropy-optimization data behind it."""

    d: int
    p: float
    n: int
    beta_star: float
    c_dp: float
    location: float


def lp_prediction(p: float, d: int, n: int) -> LpPrediction:
    """Closed-form minimizer beta*, the constant c_{d,p}, and the cutoff
    location: c_{d,p} log_{d-1} n for p in (1,2], ((p-1)/p) log_{1/rho} n
    for p in [2, inf]."""
    p = float(p)
    if not (p > 1):
        raise UsageError(f"p must lie in (1, inf], got {p}")
    check_regular(n, d)
    beta_star = max(1.0 / ((d - 1) ** _frac(p, "pm2_over_p") + 1.0), 0.5)
    h = relative_entropy(beta_star, (d - 1) / d, d - 1)
    c_dp = 1.0 / ((2 * beta_star - 1) + _frac(p, "p_over_pm1") * h)
    if p <= 2:
        location = c_dp * _log_base(n, d - 1)
    else:
        rho = 2 * math.sqrt(d - 1) / d
        location = _frac(p, "pm1_over_p") * _log_base(n, 1 / rho)
    return LpPrediction(d=d, p=p, n=n, beta_star=beta_star, c_dp=c_dp,
                        location=location)


def lp_lower_bound(n: int, d: int, p: float, t: int) -> float:
    """Rigorous tree lower bound on D_p(t): n^((p-1)/p) ||Q^t(root,.)||_p - 1,
    with the tree norm taken from the exact radial DP."""
    check_regular(n, d)
    if t < 1:
        raise UsageError(f"t must be >= 1, got {t}")
    _, row = next(itertools.islice(tree_rows(d, t), t, None))
    norm = tree_lp_norm(d, row, p)
    return n ** _frac(p, "pm1_over_p") * norm - 1.0


def srw_lower_profile(n: int, d: int, eps: float, s: float) -> dict:
    """Confinement lower bound: at time t - s*window the TV distance is at
    least 1 - eps - P(Z > c_d s), with t = (d/(d-2)) log_{d-1}(eps*n/d)."""
    if not 0 < eps < 1:
        raise UsageError(f"eps must be in (0,1), got {eps}")
    pred = cutoff_prediction(n, d)
    t = d / (d - 2) * _log_base(eps * n / d, d - 1)
    return {
        "t": t,
        "eval_time": t - s * pred.window,
        "bound": 1 - eps - profile_value(s, d),
    }


def nbrw_tmix_lower(n: int, d: int, eps: float) -> int:
    """Counting lower bound on NBRW t_mix(1 - eps):
    ceil(log_{d-1}(d n)) - ceil(log_{d-1}(1/eps)), the second log taken as
    -log(eps) / log(d-1) so that a subnormal eps does not overflow 1/eps."""
    check_regular(n, d)
    if not 0 < eps <= 1:
        raise UsageError(f"eps must be in (0,1], got {eps}")
    return _iceil(_log_base(d * n, d - 1)) - _iceil(-math.log(eps) / math.log(d - 1))


def diameter_volume_lower_bound(n: int, d: int) -> float:
    """Ball-volume diameter lower bound log_{d-1}((n-1)(d-2)/d + 1) - 1."""
    check_regular(n, d)
    return math.log((n - 1) * (d - 2) / d + 1) / math.log(d - 1) - 1


def diameter_bounds(n: int, d: int, lam: float) -> dict:
    """Diameter upper bounds from the nontrivial spectral radius lam:
    Alon-Milman, Chung, and the Chebyshev-polynomial (CFM) bound."""
    check_regular(n, d)
    if not 0 < lam < d:
        raise UsageError(f"need 0 < lambda < d, got lambda={lam}, d={d}")
    x = d / lam
    if x < 1 + 1e-12:
        raise UsageError(f"lambda={lam} too close to d={d}; cosh bound degenerates")
    acosh = lambda y: math.log(y + math.sqrt(y * y - 1))  # noqa: E731
    return {
        "alon_milman": 2 * math.sqrt(2 * d / (d - lam)) * math.log2(n),
        "chung": _iceil(_log_base(n - 1, x)),
        "cfm": math.floor(acosh(n - 1) / acosh(x) + _CEIL_SLACK) + 1,
    }


def nbrw_threshold_time(n: int, d: int) -> int:
    """ceil(log_{d-1} n + 3 log_{d-1} log n), the time at which the NBRW
    squared L^2 distance is provably O(1/log n)."""
    return weakly_adjusted_time(n, d, 0.0)


def log_log_window(n: int, d: int) -> float:
    """3 log_{d-1} log n with log n in base 10, the additive window of the
    threshold times; negative for n < 10."""
    check_regular(n, d)
    return 3 * math.log(math.log10(n)) / math.log(d - 1)


def weakly_adjusted_time(n: int, d: int, delta: float) -> int:
    """ceil((1 + 5 sqrt(delta)) log_{d-1} n + 3 log_{d-1} log n); at
    delta=0 this is the Ramanujan threshold time."""
    check_regular(n, d)
    if not (math.isfinite(delta) and delta >= 0):
        raise UsageError(f"delta must be finite and >= 0, got {delta}")
    return _iceil((1 + 5 * math.sqrt(delta)) * _log_base(n, d - 1) + log_log_window(n, d))


def l1_l2_gap(d: float) -> dict:
    """f(d) = ((d-2)/d) log(d-1) - 2 log(d/(2 sqrt(d-1))) > 0 for d > 2, and
    the n-free ratio of the L^2 to L^1 cutoff locations (always > 1)."""
    if d <= 2:
        raise UsageError(f"need d > 2, got d={d}")
    rho = 2 * math.sqrt(d - 1) / d
    f = (d - 2) / d * math.log(d - 1) - 2 * math.log(d / (2 * math.sqrt(d - 1)))
    ratio = (d - 2) * math.log(d - 1) / (2 * d * math.log(1 / rho))
    return {"f": f, "location_ratio": ratio}


def predictions_json(n: int, d: int, p: float | None = None,
                     lam: float | None = None, eps: float | None = None,
                     delta: float | None = None) -> dict:
    """All applicable predictions keyed by formula anchor, for export."""
    pred, gap = cutoff_prediction(n, d), l1_l2_gap(d)
    out = {
        "n": n,
        "d": d,
        "t_star": pred.t_star,
        "window": pred.window,
        "c_d": pred.c_d,
        "rho": pred.rho,
        "l2_location": 0.5 * _log_base(n, 1 / pred.rho),
        "threshold_time": nbrw_threshold_time(n, d),
        "f_gap": gap["f"],
        "location_ratio": gap["location_ratio"],
    }
    if p is not None:
        lp = lp_prediction(p, d, n)
        out["p"] = lp.p
        out["beta_star"] = lp.beta_star
        out["c_dp"] = lp.c_dp
        out["lp_location"] = lp.location
    if lam is not None:
        out["diameter_bounds"] = diameter_bounds(n, d, lam)
    if eps is not None:
        out["nbrw_tmix_lower"] = nbrw_tmix_lower(n, d, eps)
        out["eps"] = eps
    if delta is not None:
        out["weakly_time"] = weakly_adjusted_time(n, d, delta)
        out["delta"] = delta
    return out


# --------------------------------------------------------------------------
# Infinite-tree radial walk (reflected biased walk on the nonnegative
# integers: from 0 up with probability 1, from k >= 1 up with probability
# (d-1)/d and down with probability 1/d)
# --------------------------------------------------------------------------


def sphere_sizes(d: int, k_max: int) -> np.ndarray:
    """Tree sphere sizes: 1, d, d(d-1), ..., d(d-1)^(k-1)."""
    return np.concatenate([[1.0], d * np.power(float(d - 1), np.arange(k_max))])


def tree_lp_norm(d: int, radial_row: np.ndarray, p: float) -> float:
    """L^p norm of the tree vertex law whose radial distribution is given:
    the law is uniform on each sphere, so the p-th power sums
    sphere^(1-p) * P(k)^p over distances k."""
    if not p >= 1:
        raise UsageError(f"p must be in [1, inf], got {p}")
    sizes = sphere_sizes(d, radial_row.shape[0] - 1)
    if math.isinf(p):
        return float((radial_row / sizes).max())
    mask = radial_row > 0
    terms = sizes[mask] ** (1.0 - p) * radial_row[mask] ** p
    return float(terms.sum() ** (1.0 / p))


def tree_rows(d: int, t_max: int, log: bool = False):
    """Iterator over (t, row) for t = 0..t_max: row[k] = P(|X_t| = k), k <= t,
    or its log if log=True (the deep tail sits too many e-folds below the
    mode for the linear row to hold it). Every row is a fresh array.

    Step t computes the whole row from the one at t-1, read as zero past its
    end; a wrong-parity entry is zero + zero and the top one x + zero, sums
    that are exact in linear and log space (logaddexp(x, -inf) == x).
    """
    check_regular(None, d)
    if t_max < 0:
        raise UsageError(f"t_max must be >= 0, got {t_max}")
    if log:
        one, up, down, zero = 0.0, math.log((d - 1.0) / d), math.log(1.0 / d), -math.inf
        add, scale = np.logaddexp, np.add
    else:
        one, up, down, zero = 1.0, (d - 1.0) / d, 1.0 / d, 0.0
        add, scale = np.add, np.multiply

    def step(row, t):
        old = np.concatenate([row, (zero, zero)])
        new = np.empty(t + 1)  # new[k] = up * old[k-1] + down * old[k+1] for k = 2..t
        add(scale(up, old[1:t]), scale(down, old[3:]), out=new[2:])
        new[0] = scale(down, old[1])
        new[1] = add(old[0], scale(down, old[2]))
        return new

    return enumerate(itertools.accumulate(range(1, t_max + 1), step, initial=np.array([one])))
