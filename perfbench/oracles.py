"""Closed-form references, and the checks of every op's output against them.

Nothing here imports repmech: each reference is derived from the physics
(cyclotron motion, straight chords, surface areas) and evaluated with plain
numpy, so a defect in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_GL_NODES = 64
MAX_ORBIT_ERROR = 1e-5    # relative to the orbit radius
# RK4 on a uniform rotation loses speed as T h^5 omega^6 / 144 per unit
# amplitude; a coord_tensor orbit may drift in energy by at most 4x that
ENERGY_DRIFT_MARGIN = 4.0


def cyclotron_position(x0, u0, omega, t):
    """In-plane position after coordinate time t of uniform circular motion.

    Matches the symmetric-gauge field A_1 = +B/2 x^2, A_2 = -B/2 x^1 with
    omega = q B / (gamma m): the velocity turns as u(t) = R(omega t) u0 with
    R(a) = [[cos a, sin a], [-sin a, cos a]].
    """
    s, c = math.sin(omega * t), math.cos(omega * t)
    integral = np.array([[s / omega, (1.0 - c) / omega],
                         [(c - 1.0) / omega, s / omega]])
    return np.asarray(x0, dtype=float) + integral @ np.asarray(u0, dtype=float)


def cyclotron_velocity(u0, omega, t):
    s, c = math.sin(omega * t), math.cos(omega * t)
    return np.array([[c, s], [-s, c]]) @ np.asarray(u0, dtype=float)


def _gauss_legendre(lo, hi, n=_GL_NODES):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def cyclotron_arc_action(charge, mass, field, u0, duration):
    """Action of the on-shell arc from the spatial origin over `duration`.

    L = q A.v + m sqrt(1 - |u|^2) along the exact orbit, integrated by
    64-node Gauss-Legendre, which is exact to rounding for this smooth
    trigonometric integrand.
    """
    u0 = np.asarray(u0, dtype=float)
    gamma = 1.0 / math.sqrt(1.0 - float(u0 @ u0))
    omega = charge * field / (gamma * mass)
    ts, ws = _gauss_legendre(0.0, duration)
    total = 0.0
    for t, w in zip(ts, ws):
        x = cyclotron_position((0.0, 0.0), u0, omega, t)
        u = cyclotron_velocity(u0, omega, t)
        a_dot_v = 0.5 * field * (x[1] * u[0] - x[0] * u[1])
        total += w * (charge * a_dot_v + mass / gamma)
    return total


def symmetric_contraction(rank, dim, entries, v):
    """S(v, ..., v) of a symmetric tensor given by sorted-index entries, expanded densely."""
    dense = np.zeros((dim,) * rank)
    for idx, val in entries.items():
        for perm in set(itertools.permutations(idx)):
            dense[perm] = val
    out = dense
    for _ in range(rank):
        out = np.tensordot(out, v, axes=([0], [0]))
    return float(out)


def chord_action(mass, metric_diag, dx, coupling=0.0, entries=None):
    """Action of a straight chord with constant fields: L(dx) by degree-1 homogeneity.

    m sqrt(g(dx, dx)) plus the rank-3 term Q * cbrt(S(dx, dx, dx)).
    """
    dx = np.asarray(dx, dtype=float)
    total = mass * math.sqrt(float(dx @ (np.asarray(metric_diag) * dx)))
    if entries:
        s = symmetric_contraction(3, dx.size, entries, dx)
        total += coupling * math.copysign(abs(s) ** (1.0 / 3.0), s)
    return total


def graph_area(quadratic, linear, box):
    """Area of x3 = z.Q.z + l.z over a 2-box, by a 64x64 Gauss-Legendre product rule."""
    quad = np.asarray(quadratic, dtype=float)
    lin = np.asarray(linear, dtype=float)
    z1, w1 = _gauss_legendre(*box[0])
    z2, w2 = _gauss_legendre(*box[1])
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    Z = np.stack([Z1, Z2], axis=-1)
    grad = lin + Z @ (quad + quad.T)
    density = np.sqrt(1.0 + np.sum(grad * grad, axis=-1))
    return float(w1 @ density @ w2)


def tilted_plane_area(slope, box):
    return (box[0][1] - box[0][0]) * (box[1][1] - box[1][0]) * math.sqrt(1.0 + slope * slope)


def cylinder_patch_area(radius, box):
    return radius * (box[0][1] - box[0][0]) * (box[1][1] - box[1][0])


def relative_error(value, exact):
    return abs(value - exact) / abs(exact)


# ---------------------------------------------------------------------------
# checks: each returns (ok, relative error or None, reason)
# ---------------------------------------------------------------------------

def _check_orbit(op, s, out_dir):
    c = op.check
    exact = cyclotron_position(c["x0"][1:3], c["u0"], c["omega"], c["duration"])
    final = np.asarray(s["final_position"], dtype=float)
    err = float(np.linalg.norm(final[1:3] - exact)) / c["radius"]
    if s["steps"] != c["steps"]:
        return False, err, f"ran {s['steps']} steps, expected {c['steps']}"
    if not err <= MAX_ORBIT_ERROR:
        return False, err, f"position error {err:.3e} above {MAX_ORBIT_ERROR}"
    if abs(final[0] - (c["x0"][0] + c["duration"])) > 1e-6 or final[3] != c["x0"][3]:
        return False, err, "coordinate time or out-of-plane position off the orbit"
    if op.klass == "coord_tensor":
        traj = np.loadtxt(out_dir / s["trajectory_csv"], delimiter=",", skiprows=1)
        speed2 = traj[:, 6] ** 2 + traj[:, 7] ** 2
        energy = c["mass"] / np.sqrt(1.0 - speed2)
        drift = float(np.max(np.abs(energy / energy[0] - 1.0)))
        bound = ENERGY_DRIFT_MARGIN * c["duration"] * c["step"] ** 5 * c["omega"] ** 6 / 144.0
        if not drift <= bound:
            return False, err, f"relative energy drift {drift:.3e} above {bound:.3e}"
    return True, err, ""


def _check_extremal(op, s, out_dir):
    err = relative_error(s["action"], op.check["exact"])
    if not s["converged"]:
        return False, err, f"did not converge: {s['message']}"
    if not err <= op.check["tolerance"]:
        return False, err, f"action error {err:.3e} above {op.check['tolerance']:.3e}"
    return True, err, ""


def _check_check(op, s, out_dir):
    if not s["all_pass"]:
        bad = [p["property"] for p in s["properties"] if not p["pass"]]
        return False, None, f"sweeps failed: {bad}"
    return True, None, ""


def _check_clifford(op, s, out_dir):
    det = float(s["determinant_check"]["max_relative_residual"])
    if not det <= 1e-12:
        return False, None, f"determinant identity residual {det:.3e}"
    if op.check["perturbed"]:
        return True, None, ""
    if any(k != 1 for k in s["kernel_dims"]):
        return False, None, f"kernel dims {s['kernel_dims']}"
    # the generator, closure and covariance relations hold exactly; their
    # residuals depend only on the algebra and form, not on the seed
    worst = max(s["residuals"] + [s["closure_residual"], s["covariance_residual"]])
    if not worst <= 1e-12:
        return False, worst, f"generator residual {worst:.3e}"
    return True, worst, ""


def _check_brane(op, s, out_dir):
    err = relative_error(s["action"], op.check["exact"])
    if not err <= op.check["tolerance"]:
        return False, err, f"area error {err:.3e} above {op.check['tolerance']:.3e}"
    if s["cells"] != op.size:
        return False, err, f"{s['cells']} cells, expected {op.size}"
    if op.check["gauge_free"] and not s["gauge_deviation"] <= 1e-9:
        return False, err, f"gauge deviation {s['gauge_deviation']:.3e}"
    return True, err, ""


_CHECKS = {"simulate": _check_orbit, "extremize": _check_extremal, "check": _check_check,
           "clifford": _check_clifford, "brane": _check_brane}


def check_op(op, summary, out_dir):
    """(ok, relative error against the closed form or None, reason) for one op's output."""
    return _CHECKS[op.subcommand](op, summary, out_dir)
