"""Seeded op lists for the four benchmark workloads.

An op is one `repmech <subcommand> --config <file>` call. Each workload has a
fixed number of ops per class, and each class a fixed list of work sizes
(RK4 steps, interior points, sweep samples, Clifford samples, grid cells)
running geometrically from the class's lower to its upper bound; where the
upper end is costly the list is skewed so that most ops sit near the lower
bound. Where a class holds the 90th percentile of op times, its list has a
dense ramp of sizes there, so that op_s_p90 is a middle order statistic of
the ramp and does not jump between two ops of far-apart cost. The seed draws
everything else: field signs and strengths, start points, orientations,
couplings, config seeds and the order in which the ops run. A fresh seed
therefore gives a workload of the same size with different inputs, and the
parameters that set an oracle's truncation error are fixed, so the largest
oracle error does not depend on the seed.

`build` writes the YAML configs and the grid CSV files into a work directory
and returns the ops with the closed-form data their oracle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import oracles

WORKLOADS = ("orbits", "extremals", "identities", "surfaces")

SPEED = 0.6                       # in-plane speed of every charged orbit
GAMMA = 1.0 / math.sqrt(1.0 - SPEED ** 2)


@dataclass
class Op:
    key: str
    klass: str
    subcommand: str
    config: Path
    size: int
    check: dict = field(default_factory=dict)


def geometric_sizes(lo, hi, n, skew=1.0):
    """n integer sizes from lo to hi inclusive, log-spaced; skew > 1 crowds them toward lo."""
    return [int(round(lo * (hi / lo) ** ((i / (n - 1)) ** skew))) for i in range(n)]


def _plain(obj):
    """The document with numpy arrays and scalars turned into Python lists and numbers."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class _OpList:
    def __init__(self, name, seed, work_dir: Path):
        self.name = name
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.cfg_dir = work_dir / "configs"
        self.grid_dir = work_dir / "grids"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.ops = []

    def add(self, klass, subcommand, doc, size, check):
        key = f"{klass}-{sum(op.klass == klass for op in self.ops):03d}"
        path = self.cfg_dir / f"{key}.yaml"
        path.write_text(yaml.safe_dump(_plain(doc), sort_keys=False))
        self.ops.append(Op(key, klass, subcommand, path, size, check))

    def config_seed(self):
        return int(self.rng.integers(0, 2 ** 31))

    def shuffled(self):
        order = self.rng.permutation(len(self.ops))
        return [self.ops[i] for i in order]


# ---------------------------------------------------------------------------
# orbits: simulate in a uniform magnetic field
# ---------------------------------------------------------------------------

_ORBIT_CLASSES = (
    # class, ops, min steps, max steps, step
    ("coord_em", 40, 250, 2500, 0.02),
    ("coord_tensor", 36, 20, 200, 0.05),
    ("proper_em", 36, 16, 160, 0.05),
)
_ORBIT_SKEW = 1.5


def _orbits(b: _OpList):
    rng = b.rng
    for klass, count, lo, hi, step in _ORBIT_CLASSES:
        for steps in geometric_sizes(lo, hi, count, _ORBIT_SKEW):
            field_b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.25))
            mass = float(rng.uniform(0.5, 2.0))
            charge = mass / abs(field_b)   # |qB/m| = 1 keeps the orbit frequency fixed
            phi = rng.uniform(0.0, 2.0 * math.pi)
            u0 = SPEED * np.array([math.cos(phi), math.sin(phi)])
            x0 = np.concatenate(([rng.uniform(0.0, 10.0)], rng.uniform(-1.0, 1.0, size=3)))
            spec = {
                "mass": mass, "charge": charge,
                "metric": {"kind": "minkowski", "dim": 4},
                "potential": {"kind": "uniform_magnetic", "strength": field_b, "plane": [1, 2]},
            }
            if klass == "coord_tensor":
                coupling = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5))
                # S(v,v,v) = c (v^0)^3 makes the term linear in v: it runs the
                # generic tensor path but leaves the cyclotron orbit unchanged
                spec["extra_terms"] = [{"coupling": coupling, "rank": 3,
                                        "entries": {"0,0,0": float(rng.uniform(0.5, 2.0))}}]
            if klass == "proper_em":
                gauge = "proper_time"
                v0 = GAMMA * np.array([1.0, u0[0], u0[1], 0.0])
                duration = GAMMA * steps * step
            else:
                gauge = "coordinate_time"
                v0 = np.array([1.0, u0[0], u0[1], 0.0])
                duration = steps * step
            doc = {"seed": b.config_seed(), "spec": spec, "gauge": gauge,
                   "initial": {"position": x0, "velocity": v0},
                   "tau_end": steps * step, "step": step}
            omega = charge * field_b / (GAMMA * mass)
            b.add(klass, "simulate", doc, steps, {
                "x0": x0, "u0": u0, "omega": omega, "duration": duration,
                "radius": SPEED / abs(omega),
                "mass": mass, "steps": steps, "step": step,
            })


# ---------------------------------------------------------------------------
# extremals: extremize chords and charged arcs
# ---------------------------------------------------------------------------

# K = 9-65, most near 9, with a ramp of 13 ops at K = 31-40 around the 90th percentile
_CHORD_K = geometric_sizes(9, 30, 82, 2.0) + geometric_sizes(31, 40, 13) + [50, 65]
_ARC_K = (3, 5, 9)
ARC_DURATION = 1.0


def _extremals(b: _OpList):
    rng = b.rng
    mink = np.array([1.0, -1.0, -1.0, -1.0])
    for i, k in enumerate(_CHORD_K):
        mass = float(rng.uniform(0.5, 2.0))
        start = rng.uniform(-1.0, 1.0, size=4)
        t = rng.uniform(1.0, 2.0)
        dx = np.concatenate(([t], rng.uniform(0.1, 0.5) * t * _unit(rng, 3)))
        spec = {"mass": mass, "metric": {"kind": "minkowski", "dim": 4}}
        coupling, entries = 0.0, None
        if i % 2:
            coupling = float(rng.uniform(0.1, 0.4))
            entries = {(0, 0, 0): float(rng.uniform(0.5, 1.5)),
                       (0, 1, 1): float(rng.uniform(-0.1, 0.1))}
            spec["extra_terms"] = [{"coupling": coupling, "rank": 3,
                                    "entries": {",".join(map(str, idx)): val
                                                for idx, val in entries.items()}}]
        doc = {"seed": b.config_seed(), "spec": spec, "start": start, "end": start + dx,
               "interior_points": k, "perturbation": 0.01 / (k + 1)}
        b.add("chord_const", "extremize", doc, k, {
            "exact": oracles.chord_action(mass, mink, dx, coupling, entries),
            "tolerance": 1e-12,
        })

    for k in _ARC_K:
        # the solver's damping is not rotation invariant, so the arc starts
        # along x: a drawn direction would change its iteration count
        field_b = float(rng.choice([-1.0, 1.0]))
        u0 = np.array([SPEED, 0.0])
        omega = field_b / GAMMA
        t0 = rng.uniform(0.0, 10.0)
        end_xy = oracles.cyclotron_position((0.0, 0.0), u0, omega, ARC_DURATION)
        doc = {
            "seed": b.config_seed(),
            "spec": {"mass": 1.0, "charge": 1.0,
                     "metric": {"kind": "minkowski", "dim": 3},
                     "potential": {"kind": "uniform_magnetic", "strength": field_b,
                                   "plane": [1, 2]}},
            "start": [t0, 0.0, 0.0],
            "end": [t0 + ARC_DURATION, end_xy[0], end_xy[1]],
            "interior_points": k, "perturbation": 0.002,
        }
        b.add("arc_magnetic", "extremize", doc, k, {
            "exact": oracles.cyclotron_arc_action(1.0, 1.0, field_b, u0, ARC_DURATION),
            # midpoint-rule discretisation error, measured at 0.0146 / (K+1)^2
            "tolerance": 0.03 / (k + 1) ** 2,
        })


# ---------------------------------------------------------------------------
# identities: property sweeps and Clifford generator solves
# ---------------------------------------------------------------------------

_CHECK_SAMPLES = (10, 300)
# det_samples = 100-5000, most near 100, with a ramp of 14 ops at 620-800
# around the 90th percentile
_DET_SAMPLES = geometric_sizes(100, 600, 82, 3.0) + geometric_sizes(620, 800, 14) + [2500, 5000]
_ALGEBRAS = ("lorentz", "so3", "abelian")
_FORMS = ("minkowski", "euclidean")


def _identities(b: _OpList):
    rng = b.rng
    for samples in _CHECK_SAMPLES:
        b.add("check", "check", {"seed": b.config_seed(), "samples": samples}, samples, {})
    for i, det in enumerate(_DET_SAMPLES):
        perturbation = 0.0 if i % 4 else float(rng.uniform(5e-4, 2e-3))
        doc = {"seed": b.config_seed(), "algebra": _ALGEBRAS[i % 3],
               "form": _FORMS[i // 3 % 2],
               "perturbation": perturbation, "trials": 1 + i % 5,
               "det_samples": int(det)}
        b.add("clifford", "clifford", doc, int(det), {"perturbed": perturbation != 0.0})


# ---------------------------------------------------------------------------
# surfaces: brane areas on analytic and sampled embeddings
# ---------------------------------------------------------------------------

# grid sides 128-1024, most near 128, with a ramp of 10 ops at 160-200 around
# the 90th percentile
_SIDES = geometric_sizes(128, 150, 80, 2.0) + geometric_sizes(160, 200, 10) + [300, 490, 1024]
_GRID_NODES = (65, 66, 71, 84, 111, 164, 513)
_SHAPES = ("tilted_plane", "cylinder_patch", "graph")
# one graph x3 = (z-c).Q.(z-c) + l.(z-c) placed at a drawn corner c: moving it
# leaves its area and every discretisation error unchanged
_GRAPH_Q = np.array([[0.5, 0.05], [0.0, 0.4]])
_GRAPH_L = np.array([0.2, -0.1])


def _box(rng, lo=0.5, hi=1.5):
    corner = rng.uniform(-1.0, 1.0, size=2)
    side = rng.uniform(lo, hi, size=2)
    return [[corner[0], corner[0] + side[0]], [corner[1], corner[1] + side[1]]]


def _graph_at(box):
    """Quadratic and linear coefficients of the fixed graph with its corner at the box corner."""
    c = np.array([box[0][0], box[1][0]])
    return _GRAPH_Q, _GRAPH_L - (_GRAPH_Q + _GRAPH_Q.T) @ c


def _surfaces(b: _OpList):
    rng = b.rng
    for i, side in enumerate(_SIDES):
        shape = _SHAPES[i % 3]
        mass = float(rng.uniform(0.5, 2.0))
        if shape == "tilted_plane":
            slope, box = float(rng.uniform(0.2, 1.5)), _box(rng)
            emb = {"kind": shape, "slope": slope}
            area, tol = oracles.tilted_plane_area(slope, box), 1e-12
        elif shape == "cylinder_patch":
            radius = float(rng.uniform(0.5, 2.0))
            theta0 = rng.uniform(0.0, math.pi)
            box = [[0.0, rng.uniform(0.5, 2.0)], [theta0, theta0 + rng.uniform(0.5, 2.5)]]
            emb = {"kind": shape, "radius": radius}
            area, tol = oracles.cylinder_patch_area(radius, box), 1e-12
        else:
            box = _box(rng, 0.5, 1.0)
            quad, lin = _graph_at(box)
            emb = {"kind": shape, "linear": lin, "quadratic": quad}
            h = 1.0 / side
            area, tol = oracles.graph_area(quad, lin, box), 0.1 * h * h
        emb.update({"box": box, "resolution": [side, side]})
        doc = {"seed": b.config_seed(), "embedding": emb,
               "spec": {"metric": {"kind": "euclidean", "dim": 3},
                        "mass": mass, "charge": 0.0}}
        b.add(shape, "brane", doc, side * side, {
            "exact": mass * area, "tolerance": tol,
            "gauge_free": shape != "cylinder_patch",
        })

    b.grid_dir.mkdir(parents=True, exist_ok=True)
    for nodes in _GRID_NODES:
        box = _box(rng, 1.0, 1.0)
        quad, lin = _graph_at(box)
        mass = float(rng.uniform(0.5, 2.0))
        path = b.grid_dir / f"nodes-{nodes}.csv"
        _write_graph_nodes(path, quad, lin, box, nodes)
        h = 1.0 / (nodes - 1)
        doc = {"seed": b.config_seed(),
               "embedding": {"kind": "grid_csv", "path": path.as_posix(), "d": 2, "dim_m": 3},
               "spec": {"metric": {"kind": "euclidean", "dim": 3}, "mass": mass, "charge": 0.0}}
        b.add("grid_csv", "brane", doc, (nodes - 1) ** 2, {
            "exact": mass * oracles.graph_area(quad, lin, box),
            "tolerance": 0.1 * h * h, "gauge_free": True,
        })


def _write_graph_nodes(path: Path, quad, lin, box, nodes):
    """Rows z1, z2, x1, x2, x3 of the graph surface on a nodes x nodes grid."""
    z1 = np.linspace(box[0][0], box[0][1], nodes)
    z2 = np.linspace(box[1][0], box[1][1], nodes)
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    Z = np.stack([Z1.ravel(), Z2.ravel()], axis=-1)
    height = Z @ lin + np.einsum("na,ab,nb->n", Z, quad, Z)
    np.savetxt(path, np.column_stack([Z, Z, height]), delimiter=",", fmt="%.17g")


def build(name: str, seed: int, work_dir: Path):
    """Write the configs (and grid files) for one workload; return its ops in run order.

    work_dir should be relative to the directory the ops will run in, because
    grid_csv configs name their node files by this path.
    """
    b = _OpList(name, seed, work_dir)
    if name == "orbits":
        _orbits(b)
    elif name == "extremals":
        _extremals(b)
    elif name == "identities":
        _identities(b)
    elif name == "surfaces":
        _surfaces(b)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return b.shuffled()
