"""Command-line interface: config-driven runs with machine-readable outputs.

Subcommands: signature, check, simulate, extremize, brane, clifford.
Configs are YAML (nested key-value sections). Each mapping keeps the line
of each of its keys, so unknown keys are rejected with their line number,
and an alias inside the node it names is refused. Every number in a config
is read by one leaf rule: each leaf is a YAML int, or a finite float where
the key allows non-integers, and never a string or a boolean; an array has
its key's shape, and a key's lower bound holds for every leaf. A config
that breaks it exits 2 with an error naming the key and its line.

Every JSON summary carries the subcommand, the sha256 digest of the config
text, the tool version, and the effective seed, and all floats are printed
with 17 significant digits so identical config + seed reproduce
byte-identical outputs.

Exit codes: 0 success, 1 physics-domain error, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import math
import os
import re
import sys
import threading
from pathlib import Path
from warnings import catch_warnings, simplefilter

import numpy as np
import yaml

from . import __version__
from .action import ExtremizeResult, extremize, straight_chord_path
from .brane import (
    BraneSpec,
    brane_action,
    component_count,
    cylinder_patch_embedding,
    graph_embedding,
    gridded_embedding,
    tilted_plane_embedding,
)
from .clifford import (
    abelian_algebra,
    build_dirac_gammas,
    lorentz_vector_algebra,
    mass_shell_determinant_residual,
    perturb_gammas,
    rotation_vector_algebra,
    solve_quadratic_generators,
    vector_covariance_check,
    verify_lie_closure,
)
from .errors import ConfigError, DimensionMismatch, RepMechError
from .fields import (
    constant_potential,
    symmetric_tensor,
    uniform_magnetic_potential,
    zero_potential,
)
from .geometry import (
    causality_class,
    constant_diagonal_metric,
    constant_metric,
    euclidean_metric,
    minkowski_metric,
    signature,
)
from .lagrangian import LagrangianSpec
from .sweeps import standard_sweeps
from .worldline import GaugeChoice, energy_drift, integrate

# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def to_json(obj, indent: int = 0) -> str:
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(obj[k], indent + 1)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# YAML with key line numbers
# ---------------------------------------------------------------------------

class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads `1e-3` and `1.0e3` as floats.

    YAML 1.1 wants a dot and a signed exponent, so plain PyYAML resolves
    both to strings and `step: 1e-3` would fail as not a number. It parses
    with libyaml, and with PyYAML's pure-Python SafeLoader only where PyYAML
    was built without libyaml.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


class _Mapping(dict):
    """A config mapping; lines maps each of its keys to the 1-based line the key is on."""

    def __init__(self):
        self.lines = {}


_TAG = "tag:yaml.org,2002:"
_SCALAR_TAGS = {_TAG + t for t in ("null", "bool", "int", "float", "binary", "timestamp", "str")}


def _load_yaml(text: str):
    """The data of one YAML document, from one parse and one walk over its nodes.

    The walk builds each plain mapping as a _Mapping that holds its keys'
    lines, after the loader's flatten_mapping has resolved its merge keys,
    builds each plain sequence as a list, and hands each scalar to the
    loader's own constructor for its tag. A collection of another tag
    (!!set, !!omap, !!pairs) goes to the loader whole. A node that aliases
    reach again is walked once, and they share its data, as in
    yaml.safe_load. A ConstructorError, at the node's mark, refuses a scalar
    whose explicit tag cannot build its value (`!!int x`), a collection as
    a mapping key (none is hashable), and an alias inside the node it names.
    """
    loader = _ConfigLoader(text)
    built = {}       # id -> data of each collection walked, for the aliases that reach it again
    walking = set()  # ids of the collections the walk is inside
    constructors = loader.yaml_constructors

    def refuse(problem, node):
        raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark)

    def scalar(node):
        if node.tag not in _SCALAR_TAGS:
            return loader.construct_object(node, deep=True)  # raises the loader's error
        try:
            return constructors[node.tag](loader, node)
        except (AttributeError, LookupError, ValueError):
            refuse(f"cannot read {node.value!r} as !!{node.tag.rsplit(':', 1)[-1]}", node)

    def walk(node):
        if isinstance(node, yaml.ScalarNode):
            return scalar(node)
        key = id(node)
        if key in built:
            return built[key]
        if key in walking:
            refuse("recursive alias", node)
        mapping = isinstance(node, yaml.MappingNode)
        if node.tag != _TAG + ("map" if mapping else "seq"):
            return loader.construct_object(node, deep=True)  # !!set, !!omap, !!pairs, or an error
        walking.add(key)
        if mapping:
            loader.flatten_mapping(node)
            data = _Mapping()
            for k_node, v_node in node.value:
                if not isinstance(k_node, yaml.ScalarNode):
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        "found unhashable key", k_node.start_mark)
                k = scalar(k_node)
                data.lines[k] = k_node.start_mark.line + 1
                data[k] = walk(v_node)
        else:
            data = []
            for item in node.value:  # a loop, not a comprehension: one frame a level
                data.append(walk(item))
        walking.discard(key)
        built[key] = data
        return data

    try:
        node = loader.get_single_node()
        return None if node is None else walk(node)
    except RecursionError:
        raise yaml.constructor.ConstructorError(
            None, None, "nested too deeply", None) from None
    finally:
        loader.dispose()


def _yaml_error(exc: yaml.YAMLError) -> str:
    """One line for a YAML error: where the parser stopped (1-based) and what it found there."""
    mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
    if mark is None or problem is None:  # a ReaderError, say: its first line names the character
        return f"invalid YAML: {str(exc).splitlines()[0]}"
    return f"invalid YAML at line {mark.line + 1}, column {mark.column + 1}: {problem}"


class Section:
    """A config mapping (a _Mapping, with its keys' lines) and its path, for precise errors."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"section '{'.'.join(path) or '<root>'}' must be a mapping")
        self.data = data
        self.path = path

    def where(self, key) -> str:
        line = self.data.lines.get(key)
        loc = f" (line {line})" if line is not None else ""
        name = ".".join(self.path + (str(key),))
        return f"'{name}'{loc}"

    def require_keys(self, allowed, required=()):
        for key in self.data:
            if key not in allowed:
                raise ConfigError(f"unknown key {self.where(key)}")
        for key in required:
            if key not in self.data:
                name = ".".join(self.path + (key,))
                raise ConfigError(f"missing required key '{name}'")

    def child(self, key) -> "Section":
        return Section(self.data[key], self.path + (key,))

    def numbers(self, key, default, what, shape, integral=False, minimum=None):
        """The value at key (default when absent) by the leaf rule; see _numbers."""
        return _numbers(self.data.get(key, default), self.where(key), what, shape,
                        integral, minimum)

    def number(self, key, default=None, minimum=None):
        return self.numbers(key, default, "a number", (), minimum=minimum)

    def integer(self, key, default=None, minimum=None):
        return self.numbers(key, default, "an integer", (), integral=True, minimum=minimum)

    def vector(self, key, default=None):
        return self.numbers(key, default, "a list of numbers", (None,))

    def string(self, key, default=None, choices=None):
        val = self.data.get(key, default)
        if not isinstance(val, str):
            raise ConfigError(f"{self.where(key)} must be a string")
        if choices is not None and val not in choices:
            raise ConfigError(f"{self.where(key)} must be one of {sorted(choices)}")
        return val


def _numbers(raw, where, what, shape=(), integral=False, minimum=None):
    """raw by the leaf rule (module docstring), or a ConfigError that starts with `where`.

    shape gives each list length, None for any length but 0 (the same for
    every list at that depth). Returns an int or a float for shape (), else
    a tuple of the ints, or a float array of that shape.
    """
    shape = list(shape)
    leaves = []

    def walk(node, depth):
        if depth == len(shape):
            if isinstance(node, bool) or not isinstance(node, int if integral else (int, float)):
                raise ConfigError(f"{where} must be {what}")
            leaves.append(node)
            return
        if not isinstance(node, list) or not node or shape[depth] not in (None, len(node)):
            raise ConfigError(f"{where} must be {what}")
        shape[depth] = len(node)
        for item in node:
            walk(item, depth + 1)

    walk(raw, 0)
    if not integral:
        try:
            leaves = [float(x) for x in leaves]
        except OverflowError:  # an integer past the float range
            leaves = [math.inf]
        if not all(map(math.isfinite, leaves)):
            raise ConfigError(f"{where} must be finite")
    if minimum is not None and any(x < minimum for x in leaves):
        raise ConfigError(f"{where} must be >= {minimum}")
    if not shape:
        return leaves[0]
    if integral:
        return tuple(leaves)
    return np.asarray(raw, dtype=float)


class RunConfig:
    def __init__(self, subcommand, payload, seed, digest, warnings):
        self.subcommand = subcommand
        self.payload = payload
        self.seed = seed
        self.digest = digest
        self.warnings = warnings


# ---------------------------------------------------------------------------
# field/spec construction from config sections
# ---------------------------------------------------------------------------

# The largest metric dimension a config may ask for. At dim 1024, simulate
# (10 steps), extremize (5 interior points) and signature each ran in under
# 2 s (2-vCPU VM); extremize at dim 10**5 asked numpy for 74.5 GiB.
MAX_METRIC_DIM = 1024


def _build_metric(sec: Section):
    kind = sec.string("kind", choices={"minkowski", "euclidean", "constant_diagonal", "constant"})

    def capped(key, dim):
        if dim > MAX_METRIC_DIM:
            raise ConfigError(f"{sec.where(key)}: metric dim {dim} is above the cap of "
                              f"{MAX_METRIC_DIM}")

    if kind in ("minkowski", "euclidean"):
        sec.require_keys({"kind", "dim"}, required=("dim",))
        dim = sec.integer("dim", minimum=1)
        capped("dim", dim)
        return minkowski_metric(dim) if kind == "minkowski" else euclidean_metric(dim)
    if kind == "constant_diagonal":
        sec.require_keys({"kind", "diagonal"}, required=("diagonal",))
        diagonal = sec.vector("diagonal")
        capped("diagonal", diagonal.size)
        return constant_diagonal_metric(diagonal)
    sec.require_keys({"kind", "matrix"}, required=("matrix",))
    rows = sec.data["matrix"]
    if isinstance(rows, list):  # before the leaves are read: aliases can repeat one long row
        capped("matrix", max(len(rows), len(rows[0]) if rows and isinstance(rows[0], list) else 0))
    return constant_metric(sec.numbers("matrix", None, "a list of rows", (None, None)))


def _build_potential(sec: Section, dim: int, metric_where: str):
    kind = sec.string("kind", choices={"zero", "constant", "uniform_magnetic"})
    if kind == "zero":
        sec.require_keys({"kind"})
        return zero_potential(dim)
    if kind == "constant":
        sec.require_keys({"kind", "components"}, required=("components",))
        return constant_potential(_sized(sec, "components", dim, f"{metric_where} has dim {dim}"))
    sec.require_keys({"kind", "strength", "plane"}, required=("strength",))
    plane = sec.numbers("plane", [1, 2], "two integer indices", (2,), integral=True)
    return uniform_magnetic_potential(dim, sec.number("strength"), plane)


def _sized(sec: Section, key, n: int, other: str, default=None):
    """The vector at key, which must have the n components that `other` says it has."""
    vec = sec.vector(key, default)
    if vec.size != n:
        raise ConfigError(f"dimension mismatch: {sec.where(key)} has {vec.size} components "
                          f"but {other}")
    return vec


def _parse_tensor_entries(sec: Section, rank: int, dim: int, warnings: list):
    where = sec.where("entries")
    raw = sec.data.get("entries")
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{where} must be a non-empty mapping")
    entries = {}
    for key, val in raw.items():
        try:
            idx = tuple(int(p) for p in str(key).split(","))
        except ValueError:
            raise ConfigError(f"{where}: bad multi-index '{key}'")
        if len(idx) != rank:
            raise ConfigError(f"{where}: index '{key}' does not have rank {rank}")
        if any(i < 0 or i >= dim for i in idx):
            raise ConfigError(f"{where}: index '{key}' out of range for dim {dim}")
        canon = tuple(sorted(idx))
        if canon != idx:
            warnings.append(f"tensor entry index {idx} normalized to sorted form {canon}")
        if canon in entries:
            raise ConfigError(f"{where}: duplicate multi-index {canon}")
        entries[canon] = _numbers(val, f"{where}: value for '{key}'", "a number")
    return entries


def _build_spec(sec: Section, warnings: list) -> LagrangianSpec:
    sec.require_keys({"mass", "charge", "metric", "potential", "extra_terms"},
                     required=("metric",))
    metric = _build_metric(sec.child("metric"))
    dim = metric.dim
    potential = None
    if "potential" in sec.data:
        potential = _build_potential(sec.child("potential"), dim, sec.where("metric"))
    terms = []
    raw_terms = sec.data.get("extra_terms", [])
    if not isinstance(raw_terms, list):
        raise ConfigError(f"{sec.where('extra_terms')} must be a list")
    for i, _ in enumerate(raw_terms):
        tsec = Section(raw_terms[i], sec.path + ("extra_terms", str(i)))
        tsec.require_keys({"coupling", "rank", "entries"}, required=("coupling", "rank", "entries"))
        rank = tsec.integer("rank", minimum=3)
        entries = _parse_tensor_entries(tsec, rank, dim, warnings)
        terms.append((tsec.number("coupling"), symmetric_tensor(rank, dim, entries)))
    return LagrangianSpec(
        metric=metric,
        mass=sec.number("mass", 0.0, minimum=0),
        charge=sec.number("charge", 0.0),
        potential=potential,
        extra_terms=tuple(terms),
    )


# ---------------------------------------------------------------------------
# per-subcommand parsing
# ---------------------------------------------------------------------------

def parse_config(text: str, subcommand: str) -> RunConfig:
    """Validate config text for a subcommand; errors name the offending key and line."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    try:
        data = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError(_yaml_error(exc)) from None
    root = Section(_Mapping() if data is None else data, ())
    warnings: list = []

    seed = root.integer("seed", 0, minimum=0)
    payload = _SUBCOMMANDS[subcommand][0](root, warnings)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(subcommand, payload, seed, digest, warnings)


def _parse_signature(root: Section, warnings):
    root.require_keys({"seed", "metric", "tolerance"}, required=("metric",))
    return {"metric": _build_metric(root.child("metric")),
            "tolerance": root.number("tolerance", 1e-10, minimum=0)}


def _parse_check(root: Section, warnings):
    root.require_keys({"seed", "samples"})
    return {"samples": root.integer("samples", 1000, minimum=10)}


def _parse_simulate(root: Section, warnings):
    root.require_keys({"seed", "spec", "gauge", "initial", "tau_end", "step"},
                      required=("spec", "initial", "tau_end", "step"))
    spec = _build_spec(root.child("spec"), warnings)
    gauge_name = root.string("gauge", "coordinate_time",
                             choices={"coordinate_time", "proper_time"})
    init = root.child("initial")
    init.require_keys({"position", "velocity"}, required=("position", "velocity"))
    has_dim = f"{root.where('spec')} metric has dim {spec.dim}"
    x0, v0 = (_sized(init, key, spec.dim, has_dim) for key in ("position", "velocity"))
    return {
        "spec": spec,
        "gauge": GaugeChoice(gauge_name),
        "x0": x0,
        "v0": v0,
        "tau_end": root.number("tau_end"),
        "step": root.number("step"),
    }


def _parse_extremize(root: Section, warnings):
    root.require_keys({"seed", "spec", "start", "end", "interior_points", "perturbation",
                       "max_iters", "grad_tol"}, required=("spec", "start", "end"))
    spec = _build_spec(root.child("spec"), warnings)
    has_dim = f"{root.where('spec')} metric has dim {spec.dim}"
    start, end = (_sized(root, key, spec.dim, has_dim) for key in ("start", "end"))
    return {
        "spec": spec,
        "start": start,
        "end": end,
        "K": root.integer("interior_points", 9, minimum=1),
        "perturbation": root.number("perturbation", 0.0),
        "max_iters": root.integer("max_iters", 200, minimum=0),
        "grad_tol": root.number("grad_tol", 1e-8, minimum=0),
    }


def _parse_brane(root: Section, warnings):
    root.require_keys({"seed", "embedding", "spec"}, required=("embedding", "spec"))
    esec = root.child("embedding")
    kind = esec.string("kind", choices={"tilted_plane", "graph", "cylinder_patch", "grid_csv"})

    def box_arr(default):
        return esec.numbers("box", default, "a list of [lo, hi] pairs", (None, 2))

    def res_tuple(cells, d):
        return esec.numbers("resolution", [cells] * d, f"{d} integers >= 2", (d,),
                            integral=True, minimum=2)

    ssec = root.child("spec")
    ssec.require_keys({"metric", "mass", "charge", "potential"}, required=("metric",))
    metric = _build_metric(ssec.child("metric"))

    def check_target(dim_m):
        if metric.dim != dim_m:
            raise ConfigError(f"dimension mismatch: {ssec.where('metric')} has dim {metric.dim} "
                              f"but {esec.where('kind')} embedding targets dim {dim_m}")

    if kind == "tilted_plane":
        esec.require_keys({"kind", "slope", "box", "resolution"}, required=("slope",))
        emb = tilted_plane_embedding(esec.number("slope"), box_arr([[0, 1], [0, 1]]),
                                     res_tuple(128, 2))
    elif kind == "cylinder_patch":
        esec.require_keys({"kind", "radius", "box", "resolution"}, required=("radius",))
        emb = cylinder_patch_embedding(esec.number("radius"),
                                       box_arr([[0, 1], [0, math.pi]]),
                                       res_tuple(64, 2))
    elif kind == "graph":
        esec.require_keys({"kind", "linear", "quadratic", "box", "resolution"})
        b = box_arr([[0, 1], [0, 1]])
        d = b.shape[0]
        check_target(d + 1)  # before the d x d quadratic is read
        lin = _sized(esec, "linear", d, f"{esec.where('box')} has {d} axes", [0.0] * d)
        quad = esec.numbers("quadratic", [[0.0] * d] * d, f"a {d}x{d} matrix", (d, d))

        def f(Z, lin=lin, quad=quad):
            Z = np.atleast_2d(Z)
            return Z @ lin + np.einsum("na,ab,nb->n", Z, quad, Z)

        def grad(Z, lin=lin, quad=quad):
            Z = np.atleast_2d(Z)
            # summed into a (D, n) array, so that its .T has a contiguous cell axis
            out = np.empty((lin.size, len(Z)))
            return np.add(lin[:, None], (Z @ (quad + quad.T)).T, out=out).T

        emb = graph_embedding(f, grad=grad, box=b, resolution=res_tuple(64, d))
    else:  # grid_csv
        esec.require_keys({"kind", "path", "d", "dim_m"}, required=("path", "d", "dim_m"))
        d, dim_m = esec.integer("d", minimum=1), esec.integer("dim_m", minimum=1)
        if d > dim_m:
            raise ConfigError(f"{esec.where('d')} must be <= dim_m = {dim_m}")
        emb = _load_grid_csv(Path(esec.string("path")), d, dim_m, esec)

    check_target(emb.dim_m)
    potential = None
    if "potential" in ssec.data:
        psec = ssec.child("potential")
        psec.require_keys({"kind", "components"}, required=("kind", "components"))
        psec.string("kind", choices={"constant"})
        n_comp = component_count(emb.dim_m, emb.d)
        potential = constant_potential(_sized(
            psec, "components", n_comp,
            f"the {esec.where('kind')} embedding has {n_comp} minor components"))
    spec = BraneSpec(metric=metric, mass=ssec.number("mass", 1.0, minimum=0),
                     charge=ssec.number("charge", 1.0), potential=potential)
    return {"embedding": emb, "spec": spec}


# A grid file of at least this many bytes is parsed in two processes (see
# _split_rows). A fork, exit and reap cost about 3.5 ms. On a 2-vCPU VM, over
# two sets of 31 alternating calls, the split lost at 0.42 MB (65^2 nodes:
# medians 7.4-8.7 ms in one process, 12.1-13.7 ms split), broke even at
# 0.50-0.71 MB, and won from 0.92 MB (96^2 nodes: 26.0-27.9 -> 20.5-20.9 ms).
SPLIT_BYTES = 1 << 20


def _parse_rows(source):
    return np.loadtxt(source, delimiter=",", ndmin=2)


def _grid_rows(path: Path) -> list:
    """The rows of the CSV file at path as a list of row blocks: two halves, or one table.

    Read in order, the blocks' rows are np.loadtxt's rows of the whole file,
    bit for bit, because each half is np.loadtxt's own parse of whole lines.
    If the split is not made or fails, the one table is np.loadtxt of the
    whole file, so an unreadable file raises what it always has, with the
    row numbers of the whole file.
    """
    try:
        halves = _split_rows(path)
    except (OSError, ValueError):  # the whole-file parse below raises it again
        halves = None
    return halves or [_parse_rows(path)]


def _split_rows(path: Path):
    """[head, tail]: the rows before and after the first line break past the middle byte.

    A forked child parses head while this process parses tail, each from its
    own file handle, and the child sends head's shape and float64 bytes down a
    pipe into an array allocated here. The child always ends in os._exit and
    is reaped before this returns or raises.

    None, without a fork, when the file is smaller than SPLIT_BYTES, has no
    line break past its middle, has no second CPU to run the child on, or
    when another thread is running, because a forked child holds only the
    thread that forked it. None, after it, when the child fails or the
    halves differ in width.
    """
    size = path.stat().st_size
    if (size < SPLIT_BYTES or not hasattr(os, "fork") or threading.active_count() != 1
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return None
    with open(path, "rb") as fh:
        fh.seek(size // 2)
        fh.readline()
        cut = fh.tell()
    if cut == size:
        return None
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as source, open(write_fd, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                source.close()
                with open(path, "rb") as fh, io.TextIOWrapper(io.BytesIO(fh.read(cut))) as text:
                    head = _parse_rows(text)
                sink.write(np.array(head.shape, dtype=np.int64).tobytes())
                sink.write(head)
                sink.flush()
                status = 0
            finally:
                os._exit(status)
        sink.close()
        try:
            with open(path, "rb") as fh, io.TextIOWrapper(fh) as text:
                fh.seek(cut)  # before the text layer reads anything
                tail = _parse_rows(text)
            head = np.empty(tuple(np.frombuffer(source.read(16), dtype=np.int64)))
            received = source.readinto(head)
        finally:
            source.close()  # a child still writing then fails and exits
            status = os.waitpid(pid, 0)[1]
    if status != 0 or received != head.nbytes or head.shape[1:] != tail.shape[1:]:
        return None
    return [head, tail]


def _load_grid_csv(path: Path, d: int, dim_m: int, esec: Section):
    """CSV rows: z coordinates then x coordinates; nodes on an evenly spaced grid.

    The rows may come in any order. _grid_rows reads them as row blocks: a
    file of SPLIT_BYTES or more in two halves, the first parsed by a forked
    child process while this one parses the second, and a smaller file as
    one table. Every check, the axes, the flat node indices and the scatter
    run block by block, and the blocks are never joined. Each row's x
    columns are written once, straight into the (dimM, n1, ..., nD) node
    array that gridded_embedding gathers from, at the row's flat node index.
    At the peak the blocks (the row table's bytes in all), the first
    block's flat index, the node array and a byte per node are held: about
    (D + 2 dimM + 1) / (D + dimM) times the row table's bytes for one block,
    1.8 for D = 2 and dimM = 3, and 1.7 for two halves.
    """
    where = esec.where("path")
    if not path.exists():
        raise ConfigError(f"{where}: file '{path}' not found")
    try:
        with catch_warnings():
            simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
            blocks = _grid_rows(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot read '{path}': {exc}") from None
    n = sum(len(rows) for rows in blocks)
    if n == 0:
        raise ConfigError(f"{where}: file '{path}' has no rows")
    if blocks[0].shape[1] != d + dim_m:
        raise ConfigError(f"{where}: expected {d + dim_m} columns (z then x), "
                          f"got {blocks[0].shape[1]}")
    first = 0
    for rows in blocks:
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ConfigError(f"{where}: file '{path}' data row "
                              f"{first + int(np.argmin(finite)) + 1} has a non-finite value")
        first += len(rows)
    axes = [functools.reduce(np.union1d, [np.unique(rows[:, a]) for rows in blocks])
            for a in range(d)]
    shape = tuple(a.size for a in axes)
    if int(np.prod(shape)) != n:
        raise ConfigError(f"{where}: nodes do not form a regular grid")
    # as many rows as nodes, so a node given twice leaves another one out
    seen = np.zeros(n, dtype=bool)
    nodes = None
    while blocks:
        rows = blocks.pop(0)  # dropped once scattered
        # one flat node index per row, axis 0 slowest, as in a C-order array
        flat = np.zeros(len(rows), dtype=np.intp)
        for a in range(d):
            flat *= shape[a]
            flat += np.searchsorted(axes[a], rows[:, a])
        seen[flat] = True
        if nodes is None:  # after the first index's temporaries are gone
            nodes = np.empty((dim_m, n))
        for k in range(dim_m):
            nodes[k, flat] = rows[:, d + k]
    if np.count_nonzero(seen) != n:
        raise ConfigError(f"{where}: grid has missing nodes")
    values = np.moveaxis(nodes.reshape((dim_m,) + shape), 0, -1)
    try:
        return gridded_embedding(axes, values)
    except DimensionMismatch as exc:
        raise ConfigError(f"{where}: file '{path}': {exc}") from None


def _parse_clifford(root: Section, warnings):
    root.require_keys({"seed", "algebra", "form", "perturbation", "trials", "det_samples"})
    return {
        "algebra": root.string("algebra", "lorentz", choices={"lorentz", "so3", "abelian"}),
        "form": root.string("form", "minkowski", choices={"minkowski", "euclidean"}),
        "perturbation": root.number("perturbation", 0.0, minimum=0),
        "trials": root.integer("trials", 1, minimum=1),
        "det_samples": root.integer("det_samples", 1000, minimum=1),
    }


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _write_out(path: Path, text: str):
    """Write text as UTF-8 to path, a file in the '--out' directory; failing to is a ConfigError.

    The file is opened without truncation, overwritten from its start and
    then cut at the end of text, so a rewrite of an output of the same
    length frees no blocks. On ext4 mounted with `discard` (2-vCPU VM, best
    of 200 in each of three trials), rewriting a 1 KB file took 10-16 us
    this way against 91-103 us with "w", and a 406 KB trajectory 48-49 us
    against 188-402 us.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode())
            fh.truncate()
    except OSError as exc:  # path is a directory, say, or the disk is full
        raise ConfigError(f"'--out' '{path.parent}': cannot write '{path.name}': "
                          f"{exc.strerror}") from None


def _write_csv(path: Path, header, rows):
    """One line per row of floats, each written with 17 significant digits.

    Every row goes through one % format of all the rows' floats at once,
    which costs less than a format per row. A column whose float64 bits are
    the same in every row is formatted once, into the line template, and
    only the other columns go through the %. Over the 112 trajectories of
    one perfbench orbits round, each with such a column, that cut the
    formatting from 186 to 157 ms (medians of 21).
    """
    rows = np.asarray(rows, dtype=float)
    cells = ["%.17g"] * len(header)
    if len(rows):
        bits = rows.view(np.int64)
        constant = (bits == bits[0]).all(axis=0)
        for j in np.flatnonzero(constant):
            cells[j] = "%.17g" % float(rows[0, j])
        rows = rows[:, ~constant]
    line = ",".join(cells) + "\n"
    _write_out(path, ",".join(header) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


def _run_signature(cfg, out_dir):
    metric = cfg.payload["metric"]
    g = metric(np.zeros(metric.dim))
    sig = signature(g, tol=cfg.payload["tolerance"])
    report = {
        "signature": {
            "n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero,
            "tolerance": sig.tolerance,
        }
    }
    cls = causality_class(sig)
    causality = {"class": cls.kind.value}
    if cls.witness is not None:
        causality.update({
            "witness": cls.witness,
            "witness_model_frame": cls.witness_model,
            "spatial_speed_sq": cls.spatial_speed_sq,
            "quadratic_form_value": cls.timelike_norm,
        })
    report["causality"] = causality
    return report, []


def _run_check(cfg, out_dir):
    results = standard_sweeps(seed=cfg.seed, samples=cfg.payload["samples"])
    return {
        "properties": [
            {"property": r.name, "samples": r.samples, "max_residual": r.max_residual,
             "tolerance": r.tolerance, "pass": r.passed}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }, []


def _run_simulate(cfg, out_dir):
    p = cfg.payload
    wl = integrate(p["spec"], p["gauge"], p["x0"], p["v0"], p["tau_end"], p["step"])
    dim = p["spec"].dim
    header = ["tau"] + [f"x{i}" for i in range(dim)] + [f"v{i}" for i in range(dim)]
    rows = np.column_stack([wl.tau, wl.x, wl.v])
    csv_path = out_dir / "trajectory.csv"
    _write_csv(csv_path, header, rows)
    return {
        "gauge": wl.gauge.value,
        "steps": len(wl) - 1,
        "tau_end": float(wl.tau[-1]),
        "final_position": wl.x[-1],
        "final_velocity": wl.v[-1],
        "max_energy_drift": energy_drift(wl, p["spec"]),
        "max_gauge_residual": float(np.max(wl.gauge_residual)),
        "trajectory_csv": csv_path.name,
    }, [csv_path]


def _run_extremize(cfg, out_dir):
    p = cfg.payload
    perturbation = None
    if p["perturbation"] != 0.0:
        rng = np.random.default_rng(cfg.seed)
        perturbation = p["perturbation"] * rng.normal(size=(p["K"], p["spec"].dim))
        perturbation[:, 0] = 0.0  # keep segments timelike
    path0 = straight_chord_path(p["start"], p["end"], p["K"], perturbation)
    result: ExtremizeResult = extremize(p["spec"], path0,
                                        max_iters=p["max_iters"], grad_tol=p["grad_tol"])
    pts = result.path.points()
    csv_path = out_dir / "path.csv"
    _write_csv(csv_path, ["k"] + [f"x{i}" for i in range(p["spec"].dim)],
               np.column_stack([np.arange(len(pts)), pts]))
    return {
        "action": result.action,
        "grad_norm": result.grad_norm_inf,
        "iterations": result.iterations,
        "noether_defect": result.noether_defect,
        "converged": result.converged,
        "message": result.message,
        "path_csv": csv_path.name,
    }, [csv_path]


def _run_brane(cfg, out_dir):
    emb = cfg.payload["embedding"]
    action, details = brane_action(cfg.payload["spec"], emb, details=True)
    return {
        "action": action,
        "component_count": details["component_count"],
        "gauge_deviation": details["gauge_deviation"],
        "cells": details["cells"],
        "min_radicand": details["min_radicand"],
    }, []


def _draw_det_samples(rng, n):
    """n momenta with N(0, 1.5^2) components and n masses from U(0, 2).

    All n momenta come from one normal draw, then all n masses from one
    uniform draw, so a seed's k-th sample is not the one a per-sample draw
    (momentum, then mass, n times) would give.
    """
    return 1.5 * rng.standard_normal((n, 4)), 2.0 * rng.random(n)


def _run_clifford(cfg, out_dir):
    p = cfg.payload
    gam = build_dirac_gammas(p["form"])
    if p["algebra"] == "lorentz":
        alg = lorentz_vector_algebra(gam.form)
    elif p["algebra"] == "so3":
        alg = rotation_vector_algebra(gam.form)
    else:
        alg = abelian_algebra(4)
    rng = np.random.default_rng(cfg.seed)

    if p["perturbation"] == 0.0:
        # every trial would solve the same system
        gam_t, sol = gam, solve_quadratic_generators(alg, gam)
        trial_residuals = [float(np.max(sol.residuals))] * p["trials"]
    else:
        trial_residuals = []
        for _ in range(p["trials"]):
            gam_t = perturb_gammas(gam, p["perturbation"], rng)
            sol = solve_quadratic_generators(alg, gam_t)
            trial_residuals.append(float(np.max(sol.residuals)))

    pis, masses = _draw_det_samples(rng, p["det_samples"])
    mink = gam if p["form"] == "minkowski" else build_dirac_gammas("minkowski")
    target = (np.sum((pis @ np.linalg.inv(mink.form)) * pis, axis=-1) - masses ** 2) ** 2
    res = mass_shell_determinant_residual(0.0, masses, np.zeros(4), pis, mink)
    det_worst = float(np.max(res / np.maximum(1.0, np.abs(target))))

    return {
        "algebra": p["algebra"],
        "form": p["form"],
        "perturbation": p["perturbation"],
        "anticommutator_residual": gam_t.residual,
        "residuals": sol.residuals,
        "kernel_dims": [sol.kernel_dim] * alg.n_generators,
        "grade_leakage": sol.grade_leakage,
        "closure_residual": verify_lie_closure(sol, alg),
        "covariance_residual": vector_covariance_check(sol, alg, gam_t),
        "trial_max_residuals": trial_residuals,
        "determinant_check": {
            "samples": p["det_samples"],
            "max_relative_residual": det_worst,
        },
    }, []


# subcommand -> (its config parser, the runner of the parsed config)
_SUBCOMMANDS = {
    "signature": (_parse_signature, _run_signature),
    "check": (_parse_check, _run_check),
    "simulate": (_parse_simulate, _run_simulate),
    "extremize": (_parse_extremize, _run_extremize),
    "brane": (_parse_brane, _run_brane),
    "clifford": (_parse_clifford, _run_clifford),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)


def run(subcommand: str, cfg: RunConfig, out_dir: Path):
    """Execute a parsed config; returns (summary dict, written artifact paths)."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # out_dir, or a parent of it, is a file
        raise ConfigError(f"'--out' '{out_dir}' is not a directory: {exc.strerror}") from None
    payload_summary, artifacts = _SUBCOMMANDS[subcommand][1](cfg, out_dir)
    summary = {
        "subcommand": subcommand,
        "version": __version__,
        "config_digest": cfg.digest,
        "seed": cfg.seed,
    }
    summary.update(payload_summary)
    summary_path = out_dir / f"{subcommand}_summary.json"
    _write_out(summary_path, to_json(summary) + "\n")
    return summary, [summary_path] + artifacts


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call and reused by the next ones."""
    parser = argparse.ArgumentParser(
        prog="repmech",
        description="Reparametrization-invariant mechanics toolkit",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--json", action="store_true", help="print the JSON summary to stdout")
    return parser


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text, args.subcommand)
        if args.seed is not None:
            cfg.seed = _numbers(args.seed, "'--seed'", "an integer", integral=True, minimum=0)
        for warning in cfg.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        summary, _ = run(args.subcommand, cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RepMechError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(to_json(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
