"""Output checks for the benchmark, computed apart from qsodyn.

Each check either recomputes a claimed quantity with plain numpy/math or
tests a property the method must have (Brouwer existence, row-stochastic
transitions, additivity of cylinder measures). Nothing here imports qsodyn,
so a fault in the program cannot cancel out in its own check. Only fields
that carry a claim of the paper are checked, never stored copies of output.

Every check raises :class:`CheckFailed` with a short reason, or returns None.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SIMPLEX_TOL = 1e-12  # coordinates sum to 1 within this, none negative
STEP_TOL = 1e-12  # one recomputed orbit step, l1
LIMIT_TOL = 1e-10  # residual of an orbit's limit, l1
ORDER_TOL = 1e-12  # slack in monotone prefix sums
COEF_TOL = 1e-12  # coefficient bounds and contraction moduli
FIXTURE_TOL = 1e-9  # coordinate agreement with a fixed point the paper states
CHAIN_TOL = 1e-13  # row sums, composition splitting, cylinder additivity
CLOSED_FORM_TOL = 1e-12  # H11 against (a x1)^(2^k), linear and relative-log
MIXED_BY = 1e-8  # tau_m bound for the two-state family from m = 10 on
LINEAR_TO_K = 10  # closed-form H11 compared linearly up to here, in logs beyond


class CheckFailed(AssertionError):
    """An output of the program contradicts an independent computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- the map itself, recomputed ---------------------------------------------


def qso(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V(x)_k = sum_{i,j} p[i,j,k] x_i x_j."""
    return np.einsum("ijk,i,j->k", p, x, x)


def qso_rows(p: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ri,rj->rk", p, X, X)


def va_tensor(a: float) -> np.ndarray:
    """The two-state family: p[1,1,1] = a; every other pair produces state 2."""
    p = np.zeros((2, 2, 2))
    p[0, 0] = [a, 1.0 - a]
    p[0, 1] = p[1, 0] = p[1, 1] = [0.0, 1.0]
    return p


def spec_tensor(path: str) -> np.ndarray:
    """Dense 0-based tensor of a spec file, read without the program's parser."""
    with open(path) as fh:
        data = json.load(fh)
    if "va" in data:
        return va_tensor(float(data["va"]["a"]))
    n = int(data["n"])
    p = np.zeros((n, n, n))
    for rec in data["coefficients"]:
        i, j, k = int(rec["i"]) - 1, int(rec["j"]) - 1, int(rec["k"]) - 1
        p[i, j, k] = p[j, i, k] = float(rec["p"])
    return p


def on_simplex(x, what: str = "point") -> None:
    """One point, or one point per row."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    require(np.isfinite(X).all(), f"{what} has non-finite coordinates")
    require((X >= 0).all(), f"{what} has a negative coordinate")
    dev = float(np.abs(X.sum(axis=1) - 1.0).max())
    require(dev <= SIMPLEX_TOL, f"{what} sums to 1 only within {dev:.3g}")


# -- sweep: fixed points, order, contraction --------------------------------


def check_fixed_points(p: np.ndarray, points, tol: float) -> None:
    """At least one point (Brouwer); each on the simplex with ||V(x)-x||_1 <= tol."""
    require(len(points) >= 1, "no fixed point reported")
    for x in points:
        x = np.asarray(x, dtype=float)
        on_simplex(x, "fixed point")
        res = float(np.abs(qso(p, x) - x).sum())
        require(res <= tol, f"fixed point {x} has recomputed residual {res:.3g} > {tol:g}")


def uniqueness_bounds_met(p: np.ndarray) -> bool:
    """p[k,k,k] < 1 and p[k,j,k] < 1/2 for k < n and j > k (1-based)."""
    n = p.shape[0]
    for k in range(n - 1):
        if p[k, k, k] >= 1.0 - COEF_TOL:
            return False
        if (p[k, k + 1 :, k] >= 0.5 - COEF_TOL).any():
            return False
    return True


def check_uniqueness_flag(p: np.ndarray, met: bool) -> None:
    require(bool(met) == uniqueness_bounds_met(p), f"uniqueness_conditions_met={met} is wrong")


def _same_point_set(points, expected) -> bool:
    got = [np.asarray(x, dtype=float) for x in points]
    want = [np.asarray(x, dtype=float) for x in expected]
    if len(got) != len(want):
        return False
    for w in want:
        if not any(np.abs(g - w).max() <= FIXTURE_TOL for g in got):
            return False
    return True


def check_point_set(points, expected, what: str) -> None:
    require(
        _same_point_set(points, expected),
        f"{what}: fixed points {[list(map(float, x)) for x in points]} != {expected}",
    )


def check_unique_terminal(p: np.ndarray, points, order_violated: bool) -> None:
    """Bounds met and no order violation found: the set is exactly {(0,...,0,1)}."""
    if uniqueness_bounds_met(p) and not order_violated:
        n = p.shape[0]
        check_point_set(points, [np.eye(n)[-1]], "uniqueness bounds met")


def check_witness(p: np.ndarray, point, k: int) -> None:
    """U_k(V(x)) > U_k(x) at the reported 1-based prefix index k."""
    x = np.asarray(point, dtype=float)
    on_simplex(x, "order witness")
    y = qso(p, x)
    excess = float(np.cumsum(y)[k - 1] - np.cumsum(x)[k - 1])
    require(excess > 0.0, f"witness {x} does not violate the order at k={k} (excess {excess:.3g})")


def contraction_modulus(p: np.ndarray) -> float:
    """max over i1, i2, k of sum_j |p[i1,k,j] - p[i2,k,j]|."""
    return float(np.abs(p[:, None] - p[None, :]).sum(axis=3).max())


def has_zero_upper_blocks(p: np.ndarray) -> bool:
    """p[i,j,k] = 0 whenever both i, j > k, and p[n,n,n] = 1."""
    n = p.shape[0]
    blocks = all(np.abs(p[k + 1 :, k + 1 :, k]).max() <= COEF_TOL for k in range(n - 1))
    return blocks and abs(p[-1, -1, -1] - 1.0) <= COEF_TOL


def check_contraction(
    p: np.ndarray, modulus: float, is_strict: bool, closed_1d=None, closed_2d_max=None
) -> None:
    """The reported modulus, its strictness, and (for the structured n = 2, 3
    operators the closed forms are stated for) the closed-form criteria."""
    own = contraction_modulus(p)
    require(abs(own - modulus) <= COEF_TOL, f"contraction modulus {modulus!r} != {own!r}")
    own_strict = own < 1.0 - COEF_TOL
    if abs(own - (1.0 - COEF_TOL)) > 1e-14:
        require(bool(is_strict) == own_strict, f"is_strict={is_strict} with modulus {own!r}")
    if not has_zero_upper_blocks(p):
        return
    if closed_1d is not None:
        require(bool(closed_1d) == own_strict, f"two-state criterion {closed_1d} vs modulus {own!r}")
    if closed_2d_max is not None:
        require(
            abs(closed_2d_max - own) <= COEF_TOL,
            f"three-state criterion max {closed_2d_max!r} != modulus {own!r}",
        )


def check_orbit(p: np.ndarray, path, order_decreasing: bool, converged: bool) -> None:
    """Every point on the simplex and each step equal to V of the previous one;
    for an order-decreasing operator also non-increasing prefix sums, and a
    limit that is a fixed point once the orbit is reported converged. (Near a
    non-hyperbolic fixed point an orbit may still be creeping at the cap.)"""
    P = np.asarray(path, dtype=float)
    on_simplex(P, "orbit point")
    if len(P) > 1:
        step = np.abs(qso_rows(p, P[:-1]) - P[1:]).sum(axis=1).max()
        require(step <= STEP_TOL, f"orbit step differs from V(x) by {step:.3g}")
    if order_decreasing:
        U = np.cumsum(P, axis=1)[:, :-1]
        rise = float(np.diff(U, axis=0).max()) if len(P) > 1 else 0.0
        require(rise <= ORDER_TOL, f"prefix sum rises by {rise:.3g} along the orbit")
    if converged:
        res = float(np.abs(qso(p, P[-1]) - P[-1]).sum())
        require(res <= LIMIT_TOL, f"orbit ends at {P[-1]} with residual {res:.3g}")


# -- chains: Markov measures --------------------------------------------------


def check_transition_rows(H, what: str = "transition matrix") -> None:
    H = np.asarray(H, dtype=float)
    require(np.isfinite(H).all() and (H >= 0).all(), f"{what} has a negative or non-finite entry")
    dev = float(np.abs(H.sum(axis=1) - 1.0).max())
    require(dev <= CHAIN_TOL, f"{what} row sums deviate from 1 by {dev:.3g}")


def check_composition(full, left, right) -> None:
    """H^[0,m] = H^[0,j] H^[j,m]."""
    gap = float(np.abs(np.asarray(full) - np.asarray(left) @ np.asarray(right)).max())
    require(gap <= CHAIN_TOL, f"composition does not split: max gap {gap:.3g}")


def check_cylinder_additivity(measure: float, extensions) -> None:
    """A cylinder's mass equals the sum over its one-step extensions."""
    gap = abs(measure - math.fsum(extensions))
    require(gap <= CHAIN_TOL, f"cylinder mass {measure!r} != sum of extensions (gap {gap:.3g})")


def va_log_h11(a: float, x1: float, k: int) -> float:
    ax = a * x1
    return float("-inf") if ax == 0.0 else (2**k) * math.log(ax)


def check_va_transition(a: float, x1: float, k: int, H, log_h11: float = None) -> None:
    """H11 at time k equals (a x1)^(2^k), state 2 absorbing. Linear up to
    k = 10, relative in the log domain beyond (H11 underflows doubles there)."""
    H = np.asarray(H, dtype=float)
    require(H[1, 0] == 0.0 and H[1, 1] == 1.0, f"state 2 is not absorbing at k={k}: {H[1]}")
    if k <= LINEAR_TO_K:
        want = (a * x1) ** (2**k)
        require(abs(H[0, 0] - want) <= CLOSED_FORM_TOL, f"H11({k}) = {H[0, 0]!r}, want {want!r}")
        return
    want = va_log_h11(a, x1, k)
    if want == float("-inf"):
        require(log_h11 == want, f"log H11({k}) = {log_h11!r}, want -inf")
    else:
        scale = max(abs(want), 1.0)
        require(
            abs(log_h11 - want) <= CLOSED_FORM_TOL * scale,
            f"log H11({k}) = {log_h11!r}, want {want!r}",
        )


def va_cylinder_log(a: float, x1: float, kind: str, l: int, m: int, k: int = 0) -> float:
    """Log mass of the family's cylinder classes from the chain factors:
    x1 at time t is a^(2^t - 1) x1^(2^t) and H11 at time t is (a x1)^(2^t)."""
    if a == 0.0 and l > 0 or x1 == 0.0:
        return float("-inf")
    log_x_l = (2**l - 1) * math.log(a) + (2**l) * math.log(x1) if l > 0 else math.log(x1)
    if kind == "all_ones":
        stays = sum(va_log_h11(a, x1, t) for t in range(l, m))
        return log_x_l + stays
    if kind == "ones_then_twos":
        stays = sum(va_log_h11(a, x1, t) for t in range(l, k))
        h11_k = math.exp(va_log_h11(a, x1, k))
        return log_x_l + stays + (math.log1p(-h11_k) if h11_k < 1 else float("-inf"))
    raise ValueError(f"no log form for {kind!r}")


def check_va_cylinder(a: float, x1: float, kind: str, l: int, m: int, k: int, constructive_log: float) -> None:
    want = va_cylinder_log(a, x1, kind, l, m, k)
    if want == float("-inf"):
        require(constructive_log == want, f"{kind}[{l},{m}] log mass {constructive_log!r}, want -inf")
        return
    scale = max(abs(want), 1.0)
    require(
        abs(constructive_log - want) <= CLOSED_FORM_TOL * scale,
        f"{kind}[{l},{m}] log mass {constructive_log!r}, want {want!r}",
    )


def check_mixing_terms(terms, two_state_family: bool) -> None:
    """tau_m <= bound_m for every m; for the two-state family also
    tau_m < 1e-8 from m = 10 on. (No claim below 1e-16 is checked.)"""
    require(len(terms) >= 1, "empty mixing series")
    for m, tau, bound in terms:
        require(math.isfinite(tau) and tau >= 0.0, f"tau_{m} = {tau!r}")
        require(tau <= bound, f"tau_{m} = {tau!r} exceeds its bound {bound!r}")
        if two_state_family and m >= 10:
            require(tau < MIXED_BY, f"tau_{m} = {tau!r} has not decayed below {MIXED_BY:g}")


def check_rn_terms(terms) -> None:
    """Second-moment terms are nonnegative and partial sums never decrease."""
    prev = 0.0
    for m, k, kh, s in terms:
        require(k >= 0.0 and not kh < 0.0, f"negative second-moment term at m={m}")
        require(s >= prev, f"partial sum decreases at m={m}")
        prev = s


def check_rn_identical(terms) -> None:
    bad = [m for m, k, kh, _ in terms if k != 0.0 or kh != 0.0]
    require(not bad, f"identical parameters give nonzero terms at m={bad}")


def check_rn_equivalent(classification: str) -> None:
    require(
        classification == "equivalent_evidence",
        f"same a, different start: classified {classification!r}",
    )


# -- cli: report syntax ---------------------------------------------------------


def _reject_constant(token: str):
    raise CheckFailed(f"report holds the non-JSON token {token}")


def strict_json(text: str):
    """Parse a report, refusing NaN and Infinity, which JSON does not allow."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_spec_hash(payload: dict, path: str) -> None:
    want = file_sha256(path)
    require(payload.get("spec_hash") == want, f"spec_hash {payload.get('spec_hash')!r} != {want}")


def parse_csv(text: str, header: list) -> np.ndarray:
    """Rows of a numeric CSV whose header and column count match the command."""
    lines = text.strip("\n").split("\n")
    require(lines[0].split(",") == header, f"CSV header {lines[0]!r}, want {','.join(header)!r}")
    require(len(lines) > 1, "CSV has no rows")
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        require(len(cells) == len(header), f"CSV line {no} has {len(cells)} columns")
        rows.append([float(c) for c in cells])
    out = np.asarray(rows)
    require(np.isfinite(out).all(), "CSV holds non-finite values")
    return out
