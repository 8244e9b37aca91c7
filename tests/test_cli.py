import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import CyclotronOracle, key_lines

import repmech.cli as cli
from repmech import extremize
from repmech.cli import (
    Section,
    _ConfigLoader,
    _arg_parser,
    _draw_det_samples,
    _write_csv,
    _load_yaml,
    main,
    parse_config,
    run,
)
from repmech.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SHIPPED = sorted(CONFIGS.glob("*.yaml"))


def test_clifford_summary_is_byte_identical_on_rerun(tmp_path):
    config = str(CONFIGS / "clifford.yaml")
    for out in ("first", "second"):
        assert main(["clifford", "--config", config, "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "first" / "clifford_summary.json").read_bytes()
    assert first == (tmp_path / "second" / "clifford_summary.json").read_bytes()


def arc_config(tmp_path):
    """A charged arc in 2+1 dimensions whose ends lie on the cyclotron orbit."""
    end = CyclotronOracle().position(1.0)
    config = tmp_path / "arc.yaml"
    config.write_text(
        "seed: 3\n"
        "spec:\n"
        "  mass: 1.0\n"
        "  charge: 1.0\n"
        "  metric: {kind: minkowski, dim: 3}\n"
        "  potential: {kind: uniform_magnetic, strength: 1.0, plane: [1, 2]}\n"
        "start: [0.0, 0.0, 0.0]\n"
        f"end: [1.0, {float(end[0])!r}, {float(end[1])!r}]\n"
        "interior_points: 5\n"
        "perturbation: 0.002\n"
    )
    return config


@pytest.mark.parametrize("which", ["extremize.yaml", "magnetic_arc"])
def test_extremize_summary_is_byte_identical_on_rerun(tmp_path, which):
    config = CONFIGS / which if which.endswith(".yaml") else arc_config(tmp_path)
    for out in ("first", "second"):
        assert main(["extremize", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "first" / "extremize_summary.json").read_bytes()
    assert first == (tmp_path / "second" / "extremize_summary.json").read_bytes()
    assert json.loads(first)["converged"] is True


SIMULATE_VARIANTS = {
    "shipped": {},
    "proper_time": {"gauge": "proper_time", "initial": {"velocity": [1.25, 0.75, 0.0, 0.0]},
                    "tau_end": 0.5, "step": 0.01},
    "tensor": {"spec": {"extra_terms": [{"coupling": 0.2, "rank": 3,
                                         "entries": {"0,0,0": 1.0, "0,1,1": 0.1}}]},
               "tau_end": 0.5, "step": 0.01},
}


@pytest.mark.parametrize("variant", SIMULATE_VARIANTS)
def test_simulate_outputs_are_byte_identical_on_rerun(tmp_path, variant):
    doc = yaml.safe_load((CONFIGS / "simulate.yaml").read_text())
    for key, value in SIMULATE_VARIANTS[variant].items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    config = tmp_path / "simulate.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    for out in ("first", "second"):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    for name in ("simulate_summary.json", "trajectory.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()
    summary = json.loads((tmp_path / "first" / "simulate_summary.json").read_bytes())
    assert summary["gauge"] == doc["gauge"]
    assert summary["max_energy_drift"] <= 1e-12
    # perfbench's orbit check reads v^1 and v^2 as columns 6 and 7
    header = (tmp_path / "first" / "trajectory.csv").read_text().split("\n", 1)[0]
    assert header == "tau,x0,x1,x2,x3,v0,v1,v2,v3"


@pytest.mark.parametrize("line, key", [
    ("det_samples: 0", "det_samples"),
    ("det_samples: -5", "det_samples"),
    ("perturbation: -0.5", "perturbation"),
    ("det_sample: 10", "det_sample"),
])
def test_bad_clifford_keys_exit_2_with_their_line(tmp_path, capsys, line, key):
    config = tmp_path / "clifford.yaml"
    config.write_text(f"seed: 0\nalgebra: lorentz\n{line}\n")
    assert main(["clifford", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' (line 3)" in err
    assert not (tmp_path / "clifford_summary.json").exists()


@pytest.mark.parametrize("text", ["1e-3", "1.0e-3", "1E-3", "+1e-3"])
def test_exponent_without_dot_or_sign_is_a_float(text):
    payload = parse_config(f"perturbation: {text}\n", "clifford").payload
    assert payload == parse_config("perturbation: 0.001\n", "clifford").payload


class _PurePythonConfigLoader(yaml.SafeLoader):
    """yaml.safe_load's pure-Python loader plus the config loader's exponent resolver."""

    yaml_implicit_resolvers = _ConfigLoader.yaml_implicit_resolvers


EXPONENTS_NESTED = ("a:\n  b: [1e-3, [2E+4, {c: -1.5e2}], 0.5]\n  d:\n"
                    "    - [1, 2.0e-1, [3e0, [-4E-2]]]\n    - e: 5e1\n      f: [[6e-1]]\n")


PARSED = {
    **{path.name: path.read_text() for path in SHIPPED},
    "exponents_nested": EXPONENTS_NESTED,
    "merge_key": ("base: &base {kind: minkowski, dim: 4, extra: [1, 2]}\nmetric:\n"
                  "  <<: *base\n  dim: 3\nboth:\n  <<: [*base, {dim: 5, more: 1}]\n"),
    "alias": "a: &x\n  p: [1, {q: 2.5e-1}]\n  r: 3\nb: *x\nc: [*x, *x]\n",
    "set": "s: !!set {a, b, 1}\nt:\n  u: 1\n",
    "omap": "o: !!omap [a: 1, b: {c: 2}, d: [3]]\nseed: 4\n",
    "duplicate_key": "a: 1\nb: {x: [1, 2]}\na: {y: 2}\nb: 3\n",
}


def _data_lines(data, path=()):
    """{path: line} of every key of every mapping in parsed config data, path parts as strings."""
    lines = {}
    if isinstance(data, dict):
        for key, value in data.items():
            lines[path + (str(key),)] = data.lines[key]
            lines.update(_data_lines(value, path + (str(key),)))
    elif isinstance(data, list):
        for i, item in enumerate(data):
            lines.update(_data_lines(item, path + (str(i),)))
    return lines


def _assert_parsed_as_safe_load(text):
    """_load_yaml's data is the pure-Python loader's, and the line of each key that the
    data holds is the one key_lines gives its path."""
    data = _load_yaml(text)
    assert data == yaml.load(text, Loader=_PurePythonConfigLoader)
    loader = _PurePythonConfigLoader(text)
    node = loader.get_single_node()
    loader.construct_document(node)  # flattens the merge keys, as _load_yaml does
    want, got = key_lines(node), _data_lines(data)
    assert got == {path: want[path] for path in got}
    return got


@pytest.mark.parametrize("text", PARSED.values(), ids=PARSED)
def test_one_pass_parse_matches_safe_load(text):
    assert _ConfigLoader.__bases__ == (
        (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader),)
    assert _assert_parsed_as_safe_load(text)


@pytest.fixture(scope="module")
def perfbench_configs(tmp_path_factory):
    """{workload: texts} of every config perfbench writes at seed 5; no grid file is written."""
    work = tmp_path_factory.mktemp("perfbench")
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import workloads; workloads._write_graph_nodes = lambda *args: None; "
            "[workloads.build(name, 5, Path(sys.argv[2]) / name) for name in workloads.WORKLOADS]")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"), str(work)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return {workload.name: [p.read_text() for p in sorted(workload.glob("configs/*.yaml"))]
            for workload in work.iterdir()}


@pytest.mark.parametrize("workload", ["orbits", "extremals", "identities", "surfaces"])
def test_every_perfbench_config_parses_as_safe_load(perfbench_configs, workload):
    texts = perfbench_configs[workload]
    assert len(texts) >= 50
    for text in texts:
        assert _assert_parsed_as_safe_load(text)


def test_exponents_in_nested_lists_are_floats():
    data = _load_yaml(EXPONENTS_NESTED)
    assert data == {"a": {"b": [1e-3, [2e4, {"c": -150.0}], 0.5],
                          "d": [[1, 0.2, [3.0, [-0.04]]], {"e": 50.0, "f": [[0.6]]}]}}


@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
def test_every_trial_reports_its_residual(tmp_path, perturbation):
    text = f"algebra: so3\nperturbation: {perturbation}\ntrials: 3\ndet_samples: 10\n"
    summary, _ = run("clifford", parse_config(text, "clifford"), tmp_path)
    trials = summary["trial_max_residuals"]
    assert len(trials) == 3
    assert trials[-1] == max(summary["residuals"])
    if perturbation == 0.0:
        assert trials == [trials[0]] * 3 and trials[0] <= 1e-12
    else:
        assert len(set(trials)) == 3


def test_the_check_summary_reports_each_sweeps_tolerance(tmp_path):
    summary, _ = run("check", parse_config("samples: 10\n", "check"), tmp_path)
    assert {p["property"]: p["tolerance"] for p in summary["properties"]} == {
        "homogeneity": 1e-11, "euler_identity_analytic": 1e-10, "euler_identity_fd": 1e-6,
        "mass_shell_identity": 1e-9, "momentum_vs_fd": 1e-6, "pi_invariance": 1e-12,
        "gauge_shift": 1e-10}


def test_determinant_check_takes_the_minkowski_set_for_either_form(tmp_path):
    checks = []
    for form in ("minkowski", "euclidean"):
        text = f"form: {form}\nperturbation: 1e-3\ntrials: 2\ndet_samples: 50\n"
        summary, _ = run("clifford", parse_config(text, "clifford"), tmp_path / form)
        checks.append(summary["determinant_check"])
    assert checks[0] == checks[1]
    assert checks[0]["max_relative_residual"] <= 1e-12


def _number_leaves(node, path=()):
    """(path, value) of every int or float in a parsed config; list items add their index."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        return [(path, node)] if number else []
    return [leaf for key, value in items for leaf in _number_leaves(value, path + (key,))]


def _replaced(doc, path, value):
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


NUMBER_LEAVES = [(config.stem, path, value) for config in SHIPPED
                 for path, value in _number_leaves(yaml.safe_load(config.read_text()))]
FLOAT_LEAVES = [(c, path) for c, path, value in NUMBER_LEAVES if isinstance(value, float)]


def _key_and_line(text, path):
    """The key that holds the leaf at path, a list item being named by its list, and its line."""
    key = tuple(str(k) for k in path if not isinstance(k, int))
    return ".".join(key), key_lines(yaml.compose(text))[key]


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("subcommand, path", FLOAT_LEAVES,
                         ids=[f"{c}:{'.'.join(map(str, p))}" for c, p in FLOAT_LEAVES])
def test_a_non_finite_config_number_exits_2_naming_its_key(tmp_path, capsys, subcommand,
                                                           path, value):
    doc = _replaced(yaml.safe_load((CONFIGS / f"{subcommand}.yaml").read_text()), path,
                    "NON_FINITE")
    text = yaml.safe_dump(doc, sort_keys=False).replace("NON_FINITE", value)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    key, line = _key_and_line(text, path)
    assert f"'{key}' (line {line}) must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1", True], ids=["string", "bool"])
@pytest.mark.parametrize("subcommand, path", [(c, p) for c, p, _ in NUMBER_LEAVES],
                         ids=[f"{c}:{'.'.join(map(str, p))}" for c, p, _ in NUMBER_LEAVES])
def test_a_string_or_bool_config_number_exits_2_naming_its_key(tmp_path, capsys, subcommand,
                                                               path, value):
    doc = _replaced(yaml.safe_load((CONFIGS / f"{subcommand}.yaml").read_text()), path, value)
    text = yaml.safe_dump(doc, sort_keys=False)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    key, line = _key_and_line(text, path)
    assert f"'{key}' (line {line}) must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


DIMENSION_MISMATCHES = {
    "position": ("simulate", "position: [0.0, 0.0, 0.0, 0.0]", "position: [0.0, 0.0, 0.0]",
                 ["spec", "initial.position"]),
    "velocity": ("simulate", "velocity: [1.0, 0.6, 0.0, 0.0]", "velocity: [1.0, 0.6]",
                 ["spec", "initial.velocity"]),
    "start": ("extremize", "start: [0.0, 0.0, 0.0, 0.0]", "start: [0.0, 0.0, 0.0, 0.0, 0.0]",
              ["spec", "start"]),
    "end": ("extremize", "end: [1.0, 0.3, 0.0, 0.0]", "end: [1.0, 0.3, 0.0]", ["spec", "end"]),
    "constant_potential": ("simulate", "kind: uniform_magnetic\n    strength: 1.0\n"
                           "    plane: [1, 2]", "kind: constant\n    components: [0.1, 0.2]",
                           ["spec.metric", "spec.potential.components"]),
    "graph_linear": ("brane", "kind: tilted_plane\n  slope: 0.75", "kind: graph\n  linear: [0.5]",
                     ["embedding.box", "embedding.linear"]),
    "brane_potential": ("brane", "charge: 0.0", "charge: 0.0\n  potential: "
                        "{kind: constant, components: [0.1, 0.2]}",
                        ["spec.potential.components", "embedding.kind"]),
}


@pytest.mark.parametrize("case", DIMENSION_MISMATCHES)
def test_a_dimension_mismatch_exits_2_naming_both_keys(tmp_path, capsys, case):
    subcommand, old, new, keys = DIMENSION_MISMATCHES[case]
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    assert old in text
    text = text.replace(old, new)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dimension mismatch: ")
    lines = key_lines(yaml.compose(text))
    for key in keys:
        assert f"'{key}' (line {lines[tuple(key.split('.'))]})" in err
    assert not (tmp_path / "out").exists()


def _one_key_section(raw, path=(), line=None):
    """A Section at path whose mapping holds raw under "key", written on line."""
    data = cli._Mapping()
    data["key"] = raw
    if line is not None:
        data.lines["key"] = line
    return Section(data, path)


@pytest.mark.parametrize("raw, shape, integral, minimum, value", [
    (2, (), False, None, 2.0),
    (-0.5, (), False, -1, -0.5),
    (7, (), True, 0, 7),
    ([1, 2.5], (None,), False, None, [1.0, 2.5]),
    ([[0, 1], [0.5, 2]], (None, 2), False, None, [[0.0, 1.0], [0.5, 2.0]]),
    ([[1, 2, 3]], (None, None), False, None, [[1.0, 2.0, 3.0]]),
    ([3, 2], (2,), True, 2, (3, 2)),
])
def test_the_number_reader_returns_the_values_in_their_shape(raw, shape, integral, minimum,
                                                              value):
    got = _one_key_section(raw).numbers("key", None, "it", shape, integral, minimum)
    if integral:
        assert got == value and type(got) is type(value)
        assert all(type(v) is int for v in (got if shape else [got]))
    elif shape:
        assert got.dtype == float and got.shape == np.shape(value)
        assert np.array_equal(got, value)
    else:
        assert type(got) is float and got == value


@pytest.mark.parametrize("raw, shape, integral, minimum, message", [
    ("1", (), False, None, "must be it"),
    (True, (), False, None, "must be it"),
    (None, (), False, None, "must be it"),
    (1.0, (), True, None, "must be it"),
    ([1.0], (), False, None, "must be it"),
    (1.0, (None,), False, None, "must be it"),
    ([1, "2"], (None,), False, None, "must be it"),
    ([], (None,), False, None, "must be it"),
    ([], (None, 2), False, None, "must be it"),
    ([[]], (None, None), False, None, "must be it"),
    ([1, False], (2,), True, None, "must be it"),
    ([1, 2, 3], (2,), True, None, "must be it"),
    ([[1, 2], [3]], (None, None), False, None, "must be it"),
    ([[1, 2], 3], (None, None), False, None, "must be it"),
    ([[0, 1], [0, 1, 2]], (None, 2), False, None, "must be it"),
    ([0.0, float("nan")], (None,), False, None, "must be finite"),
    (10 ** 400, (), False, None, "must be finite"),
    (-1e-9, (), False, 0, "must be >= 0"),
    ([2, 1], (2,), True, 2, "must be >= 2"),
])
def test_the_number_reader_rejects_what_breaks_the_leaf_rule(raw, shape, integral, minimum,
                                                              message):
    sec = _one_key_section(raw, ("outer",), line=4)
    with pytest.raises(ConfigError) as err:
        sec.numbers("key", None, "it", shape, integral, minimum)
    assert str(err.value) == f"'outer.key' (line 4) {message}"


NON_FINITE_RAW = {
    "matrix": ("simulate", "kind: minkowski\n    dim: 4",
               "kind: constant\n    matrix: [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, .nan],"
               " [0, 0, .nan, -1]]", "spec.metric.matrix"),
    "quadratic": ("brane", "kind: tilted_plane\n  slope: 0.75",
                  "kind: graph\n  quadratic: [[0.5, .inf], [0, 0.5]]", "embedding.quadratic"),
    "tensor_entry": ("simulate", "gauge:",
                     "  extra_terms:\n    - coupling: 0.2\n      rank: 3\n"
                     "      entries: {'0,0,0': .nan}\ngauge:", "spec.extra_terms.0.entries"),
    "integer_past_floats": ("simulate", "tau_end: 10.0", "tau_end: 1" + "0" * 400, "tau_end"),
}


@pytest.mark.parametrize("case", NON_FINITE_RAW)
def test_non_finite_raw_arrays_exit_2_naming_their_key(tmp_path, capsys, case):
    subcommand, old, new, key = NON_FINITE_RAW[case]
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    assert old in text
    text = text.replace(old, new)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    line = key_lines(yaml.compose(text))[tuple(key.split("."))]
    err = capsys.readouterr().err
    assert f"'{key}' (line {line})" in err and "must be finite" in err


@pytest.mark.parametrize("key, old, new", [
    ("spec.metric.matrix", "kind: minkowski\n    dim: 4",
     "kind: constant\n    matrix: [[1, 0], [0]]"),
    ("embedding.quadratic", "kind: tilted_plane\n  slope: 0.75",
     "kind: graph\n  quadratic: [[0.5], [0, 0.5]]"),
    ("embedding.box", "box: [[0.0, 1.0], [0.0, 1.0]]", "box: [[0.0, 1.0], [0.0]]"),
    # an empty array is not of any shape either
    ("spec.metric.matrix", "kind: minkowski\n    dim: 4", "kind: constant\n    matrix: []"),
    ("embedding.box", "box: [[0.0, 1.0], [0.0, 1.0]]", "box: []"),
])
def test_ragged_raw_arrays_exit_2_naming_their_key(tmp_path, capsys, key, old, new):
    subcommand = "simulate" if key.startswith("spec") else "brane"
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    assert old in text
    config = tmp_path / "config.yaml"
    config.write_text(text.replace(old, new))
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"'{key}' (line " in capsys.readouterr().err


def test_a_step_count_above_the_cap_exits_1_at_once(tmp_path, capsys):
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
        "tau_end: 10.0", "tau_end: 1.0e9").replace("step: 0.001", "step: 1.0e-6"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("DimensionMismatch: step count 1000000000000000 is above the cap of "
                   "10000000 steps\n")


def test_a_step_count_past_the_float_range_exits_1(tmp_path, capsys):
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
        "tau_end: 10.0", "tau_end: 1.0e300").replace("step: 0.001", "step: 1.0e-300"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("DimensionMismatch: step count") and "Traceback" not in err


def test_physics_error_exits_1(tmp_path, capsys):
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
        "velocity: [1.0, 0.6, 0.0, 0.0]", "velocity: [0.5, 0.6, 0.0, 0.0]"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("GaugeViolation:")


EXTREMIZE_ERRORS = {
    # x^0 runs backwards from start to end, so the frozen gauge has no segment to hold
    "GaugeViolation": ("spec: {mass: 1.0, metric: {kind: minkowski, dim: 3}}\n"
                       "start: [1.0, 0.0, 0.0]\nend: [0.0, 0.2, 0.0]\n"),
    # a massless charge in a uniform field: the reduced Hessian vanishes
    "SingularReducedHessian": (
        "spec:\n  mass: 0.0\n  charge: 1.0\n  metric: {kind: minkowski, dim: 3}\n"
        "  potential: {kind: uniform_magnetic, strength: 1.0, plane: [1, 2]}\n"
        "start: [0.0, 0.0, 0.0]\nend: [1.0, 0.5, 0.0]\ninterior_points: 1\n"
        "perturbation: 0.3\n"),
    # 10^5 interior points: a dense action Hessian of 1.6e11 entries
    "DimensionMismatch": ("spec: {mass: 1.0, metric: {kind: minkowski, dim: 4}}\n"
                          "start: [0.0, 0.0, 0.0, 0.0]\nend: [1.0, 0.3, 0.0, 0.0]\n"
                          "interior_points: 100000\nperturbation: 1.0e-7\n"),
}


@pytest.mark.parametrize("error", EXTREMIZE_ERRORS)
def test_extremize_solver_errors_exit_1(tmp_path, capsys, error):
    config = tmp_path / "extremize.yaml"
    config.write_text(EXTREMIZE_ERRORS[error])
    assert main(["extremize", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}:") and err.count("\n") == 1


def test_seed_flag_overrides_the_config_seed(tmp_path):
    body = "algebra: so3\nperturbation: 0.001\ntrials: 2\ndet_samples: 10\n"
    (tmp_path / "seven.yaml").write_text("seed: 7\n" + body)
    (tmp_path / "zero.yaml").write_text("seed: 0\n" + body)
    runs = {
        "seven": ["--config", str(tmp_path / "seven.yaml")],
        "zero": ["--config", str(tmp_path / "zero.yaml")],
        "zero_as_seven": ["--config", str(tmp_path / "zero.yaml"), "--seed", "7"],
    }
    summaries = {}
    for name, args in runs.items():
        assert main(["clifford", *args, "--out", str(tmp_path / name)]) == 0
        summary = json.loads((tmp_path / name / "clifford_summary.json").read_text())
        del summary["config_digest"]
        summaries[name] = summary
    assert summaries["zero_as_seven"]["seed"] == 7
    assert summaries["zero_as_seven"] == summaries["seven"]
    assert summaries["zero"]["trial_max_residuals"] != summaries["seven"]["trial_max_residuals"]


def test_a_negative_seed_flag_exits_2(tmp_path, capsys):
    config = str(CONFIGS / "clifford.yaml")
    assert main(["clifford", "--config", config, "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: '--seed' must be >= 0\n"
    assert not (tmp_path / "clifford_summary.json").exists()


@pytest.mark.parametrize("subcommand, key, value", [
    ("signature", "tolerance", "-2.0"),
    ("extremize", "max_iters", "-5"),
    ("extremize", "grad_tol", "-1.0"),
])
def test_a_negative_solver_bound_exits_2_naming_its_key(tmp_path, capsys, subcommand, key,
                                                        value):
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(f"{key}:"))
    config = tmp_path / "config.yaml"
    config.write_text(text.replace(f"\n{key}:", f"\n{key}: {value}  #"))
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: '{key}' (line {line}) must be >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_an_out_path_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    config = str(CONFIGS / "signature.yaml")
    assert main(["signature", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: '--out' '{out}' is not a directory: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name", ["trajectory.csv", "simulate_summary.json"])
def test_an_output_file_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace("tau_end: 10.0",
                                                                      "tau_end: 0.1"))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: '--out' '{out}': cannot write "
                                       f"'{name}': Is a directory\n")


def _one_dim_simulate(gauge):
    return ("seed: 0\nspec:\n  mass: 1.0\n  charge: 0.0\n  metric: {kind: minkowski, dim: 1}\n"
            "  potential: {kind: zero}\n"
            f"gauge: {gauge}\ninitial:\n  position: [0.0]\n  velocity: [1.0]\n"
            "tau_end: 0.1\nstep: 0.01\n")


# forty anchors, each a list of two aliases to the one before: 2^41 nodes if expanded
ALIAS_CHAIN = "seed: 0\na0: &a0 [1, 1]\n" + "".join(f"a{i}: &a{i} [*a{i - 1}, *a{i - 1}]\n"
                                                    for i in range(1, 41))

# (subcommand, config text, exit code, stderr); each ended in a traceback before
MALFORMED = {
    **{f"signature_{kind}_dim_{dim}": (
        "signature", f"seed: 0\nmetric: {{kind: {kind}, dim: {dim}}}\n", 2,
        "config error: 'metric.dim' (line 2) must be >= 1")
       for kind, dim in [("minkowski", 0), ("euclidean", 0), ("minkowski", -2)]},
    **{f"{sub}_dim_0": (sub, (CONFIGS / f"{sub}.yaml").read_text().replace("dim: 4", "dim: 0"),
                        2, "config error: 'spec.metric.dim' (line 8) must be >= 1")
       for sub in ("simulate", "extremize")},
    **{f"simulate_1d_{gauge}": ("simulate", _one_dim_simulate(gauge), 1,
                                "DimensionMismatch: a world line needs dimension >= 2, got 1")
       for gauge in ("coordinate_time", "proper_time")},
    **{f"clifford_{algebra}_huge_perturbation": (
        "clifford", f"seed: 0\nalgebra: {algebra}\nperturbation: 1.0e300\n", 1,
        "FormMismatch: perturbation 1e+300 overflows the anticommutator residual")
       for algebra in ("lorentz", "so3", "abelian")},
    # no negative direction: the multi-time witness had no axis to use
    **{f"signature_{name}": (
        "signature", f"seed: 0\nmetric: {metric}\n", 1,
        f"NoSpatialDirection: no causality class for signature (n_plus={n_plus}, n_minus=0): "
        "several time directions and no spatial one, so speed is undefined")
       for name, metric, n_plus in [
           ("euclidean_dim_3", "{kind: euclidean, dim: 3}", 3),
           ("all_positive_diagonal", "{kind: constant_diagonal, diagonal: [1, 2, 3, 4, 5]}", 5)]},
    # a huge metric dimension asked numpy for gibibytes
    **{f"{sub}_dim_100000": (
        sub, (CONFIGS / f"{sub}.yaml").read_text().replace(f"dim: {dim}\n", "dim: 100000\n"), 2,
        f"config error: 'spec.metric.dim' (line {line}): metric dim 100000 is above the cap "
        "of 1024")
       for sub, dim, line in [("simulate", 4, 8), ("extremize", 4, 8), ("brane", 3, 11)]},
    "signature_dim_100000": (
        "signature", "seed: 0\nmetric: {kind: minkowski, dim: 100000}\n", 2,
        "config error: 'metric.dim' (line 2): metric dim 100000 is above the cap of 1024"),
    "signature_diagonal_above_cap": (
        "signature", f"seed: 0\nmetric: {{kind: constant_diagonal, diagonal: {[1.0] * 1025}}}\n", 2,
        "config error: 'metric.diagonal' (line 2): metric dim 1025 is above the cap of 1024"),
    # a thousand aliases of one row of 2000 entries: read before the cap, the
    # leaves would number 2 million
    "signature_aliased_matrix_rows": (
        "signature", "metric:\n  kind: constant\n  matrix: [&r [" + ", ".join(["0"] * 2000)
        + "]" + ", *r" * 999 + "]\n", 2,
        "config error: 'metric.matrix' (line 3): metric dim 2000 is above the cap of 1024"),
    "signature_matrix_above_cap": (
        "signature", f"seed: 0\nmetric:\n  kind: constant\n  matrix: {[[0.0]] * 1025}\n", 2,
        "config error: 'metric.matrix' (line 4): metric dim 1025 is above the cap of 1024"),
    # was a four-line message
    "invalid_yaml": ("check", "seed: 0\nsamples: [1\n", 2,
                     "config error: invalid YAML at line 3, column 1: did not find expected ',' "
                     "or ']'"),
    "invalid_yaml_character": ("check", "seed: 0\nsamples: \x01\n", 2,
                               "config error: invalid YAML: unacceptable character #x0001: "
                               "control characters are not allowed"),
    # an explicit tag whose constructor cannot read its scalar
    **{f"explicit_{tag}_tag": ("check", f"seed: !!{tag} x\nsamples: 10\n", 2,
                               f"config error: invalid YAML at line 1, column 7: cannot read 'x' "
                               f"as !!{tag}")
       for tag in ("int", "float", "bool", "timestamp")},
    # an alias inside the node it names died in a RecursionError, the alias chain
    # exhausted memory, and so did nesting past Python's recursion limit
    "recursive_alias": ("check", "seed: &a [*a]\n", 2,
                        "config error: invalid YAML at line 1, column 7: recursive alias"),
    "alias_chain": ("check", ALIAS_CHAIN, 2, "config error: unknown key 'a0' (line 2)"),
    # no collection is hashable, and a !!set, !!omap or !!pairs is the loader's to build
    "collection_key": ("check", "? !foo [1]\n: 2\n", 2,
                       "config error: invalid YAML at line 1, column 3: found unhashable key"),
    "recursive_alias_in_omap": ("check", "a: &x {o: !!omap [k: *x]}\n", 2,
                                "config error: invalid YAML at line 1, column 11: found "
                                "unconstructable recursive node"),
    # a key that is not a string died in a TypeError from Section.where
    **{f"{kind}_key_at_the_root": ("check", f"seed: 0\n{key}: 2\n", 2,
                                   f"config error: unknown key '{name}' (line 2)")
       for kind, key, name in [("int", "1", "1"), ("float", "2.5", "2.5"),
                               ("bool", "true", "True"), ("null", "null", "None")]},
    **{f"{kind}_key_nested": ("signature", f"seed: 0\nmetric: {{kind: minkowski, dim: 4, "
                              f"{key}: 1}}\n", 2,
                              f"config error: unknown key 'metric.{name}' (line 2)")
       for kind, key, name in [("int", "3", "3"), ("float", "-0.5", "-0.5"),
                               ("bool", "false", "False"), ("null", "~", "None")]},
    "null_key_in_extremize": (
        "extremize", (CONFIGS / "extremize.yaml").read_text() + "null: 1\n", 2,
        "config error: unknown key 'None' (line 15)"),
    "deep_nesting": ("check", "seed: " + "[" * 5000 + "]" * 5000 + "\n", 2,
                     "config error: invalid YAML: nested too deeply"),
    "deep_merge_keys": ("check", "a: " + "{<<: " * 3000 + "{b: 1}" + "}" * 3000 + "\n", 2,
                        "config error: invalid YAML: nested too deeply"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_config_exits_with_one_line_and_no_traceback(tmp_path, capsys, recwarn, case):
    subcommand, text, code, message = MALFORMED[case]
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == message + "\n"
    assert "Traceback" not in err
    assert not recwarn.list


def test_an_alias_chain_is_walked_once_and_shares_its_data():
    start = time.perf_counter()
    data = _load_yaml(ALIAS_CHAIN)
    assert time.perf_counter() - start < 1.0
    for i in range(1, 41):
        assert data[f"a{i}"][0] is data[f"a{i}"][1] is data[f"a{i - 1}"]
    assert data.lines["a40"] == 42


# (subcommand, config text, stderr); each printed a numpy overflow warning first,
# or a traceback
OVERFLOWS = {
    f"{sub}_{key}": (sub, (CONFIGS / f"{sub}.yaml").read_text().replace(old, new), message)
    for sub, key, old, new, message in [
        ("signature", "diagonal", "[1.0, 1.0,", "[1.0e300, 1.0,",
         "DegenerateMetric: metric is degenerate"),
        ("simulate", "velocity", "[1.0, 0.6,", "[1.0, 1.0e300,",
         "DimensionMismatch: g(v0, v0) overflows to -inf at v0 = [1.0, 1e+300, 0.0, 0.0]"),
        ("extremize", "end", "[1.0, 0.3,", "[1e300, 0.3,",
         "DimensionMismatch: segment 0: g(dx, dx) overflows to inf"),
        # these two ran on: the brane wrote an infinite action and exited 0, and the
        # march named the overflow a spacelike velocity
        ("brane", "slope", "slope: 0.75", "slope: 1.0e200",
         "DimensionMismatch: cell 0: the density overflows to inf"),
        ("simulate", "strength", "strength: 1.0\n", "strength: 1.0e300\n",
         "DimensionMismatch: g(v, v) overflows to -inf"),
        ("simulate", "charge", "charge: 1.0\n", "charge: 1.0e+300\n",
         "DimensionMismatch: the field strength q (J^T - J) overflows at x0 = "
         "[0.0, 0.0, 0.0, 0.0]"),
        ("signature", "diagonal_det", "[1.0, 1.0, -1.0, -1.0]",
         "[1.0, 1.0, 1.0e+300, -1.0e+300]", "DegenerateMetric: metric is degenerate"),
    ]
}
OVERFLOWS["simulate_charge"] = (
    "simulate", OVERFLOWS["simulate_charge"][1].replace("strength: 1.0", "strength: -1.0e+300"),
    OVERFLOWS["simulate_charge"][2])
# with no mass term the action is 0, and the smallest radicand of the details overflows
OVERFLOWS["brane_slope_massless"] = (
    "brane", OVERFLOWS["brane_slope"][1].replace("mass: 1.0", "mass: 0"),
    "DimensionMismatch: the smallest volume radicand overflows to inf")


# extremize's |spatial grad|^2 overflows at this mass, and Newton stopped at
# iteration 0; its steps now run until the rounding of the gradient stalls them
OVERFLOWS["extremize_mass"] = (
    "extremize", (CONFIGS / "extremize.yaml").read_text().replace("mass: 1.0", "mass: 1.0e+300"),
    "")
# no step squares the mass: the orbit is a straight line, and p_0 does not drift
OVERFLOWS["simulate_mass"] = (
    "simulate", (CONFIGS / "simulate.yaml").read_text().replace("mass: 1.0", "mass: 1.0e+300"),
    "")


@pytest.mark.parametrize("case", OVERFLOWS)
def test_an_input_past_the_float_range_ends_in_one_line_and_no_warning(tmp_path, capsys, case):
    subcommand, text, message = OVERFLOWS[case]
    config = tmp_path / "config.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == (
            1 if message else 0)
    assert capsys.readouterr().err == (message + "\n" if message else "")
    if not message:
        summary = json.loads((out / f"{subcommand}_summary.json").read_text())
        if subcommand == "extremize":
            assert summary["iterations"] > 10 and summary["action"] > 9e299
        else:
            assert np.isfinite(summary["final_position"]).all()
            assert np.isfinite(summary["final_velocity"]).all()
            assert summary["max_energy_drift"] == 0.0


# (subcommand, config text, stderr) of config errors that no other test reaches
CONFIG_ERRORS = {
    "section_not_a_mapping": ("signature", "metric: 5\n",
                              "section 'metric' must be a mapping"),
    "missing_required_key": ("signature", "seed: 0\n", "missing required key 'metric'"),
    "empty_file": ("signature", "", "missing required key 'metric'"),
    "string_key_given_a_number": ("clifford", "algebra: 5\n",
                                  "'algebra' (line 1) must be a string"),
    "outside_the_choices": ("clifford", "seed: 0\nalgebra: su2\n",
                            "'algebra' (line 2) must be one of ['abelian', 'lorentz', 'so3']"),
    "extra_terms_not_a_list": (
        "simulate", (CONFIGS / "simulate.yaml").read_text().replace(
            "  metric:", "  extra_terms: {coupling: 0.2}\n  metric:"),
        "'spec.extra_terms' (line 6) must be a list"),
    "brane_metric_dim": (
        "brane", (CONFIGS / "brane.yaml").read_text().replace("dim: 3", "dim: 4"),
        "dimension mismatch: 'spec.metric' (line 9) has dim 4 but 'embedding.kind' (line 4) "
        "embedding targets dim 3"),
    # a graph box is checked against the metric before its d x d quadratic is read
    "graph_box_before_quadratic": (
        "brane", (CONFIGS / "brane.yaml").read_text().replace(
            "kind: tilted_plane\n  slope: 0.75", "kind: graph\n  quadratic: [[0.5], [0, 0.5]]"
        ).replace("box: [[0.0, 1.0], [0.0, 1.0]]", "box: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]"),
        "dimension mismatch: 'spec.metric' (line 9) has dim 3 but 'embedding.kind' (line 4) "
        "embedding targets dim 4"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_a_config_error_exits_2_with_its_one_line(tmp_path, capsys, case):
    subcommand, text, message = CONFIG_ERRORS[case]
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_an_unreadable_config_path_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["check", "--config", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read '{missing}': [Errno 2] No such "
                                       f"file or directory: '{missing}'\n")


def test_an_empty_config_takes_every_default():
    assert parse_config("", "check").payload == {"samples": 1000}
    assert parse_config("# nothing but a comment\n", "clifford").payload == {
        "algebra": "lorentz", "form": "minkowski", "perturbation": 0.0, "trials": 1,
        "det_samples": 1000}


def test_a_constant_metric_matrix_reads_as_its_diagonal(tmp_path):
    summaries = []
    for name, metric in [
            ("diagonal", "{kind: constant_diagonal, diagonal: [1.0, 1.0, -1.0, -1.0]}"),
            ("matrix", "{kind: constant, matrix: [[1, 0, 0, 0], [0, 1.0, 0, 0], "
                       "[0, 0, -1, 0], [0, 0, 0, -1.0]]}")]:
        summary, _ = run("signature", parse_config(f"metric: {metric}\n", "signature"),
                         tmp_path / name)
        summary.pop("config_digest")
        summaries.append(cli.to_json(summary))
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["signature"]["n_minus"] == 2


def test_a_cylinder_patch_has_the_area_of_its_unrolled_rectangle(tmp_path):
    text = ("embedding: {kind: cylinder_patch, radius: 2.0, resolution: [8, 8]}\n"
            "spec: {metric: {kind: euclidean, dim: 3}, mass: 1.5}\n")
    summary, _ = run("brane", parse_config(text, "brane"), tmp_path)
    # radius 2 over the default box, z in [0, 1] and theta in [0, pi]
    assert summary["action"] == pytest.approx(1.5 * 2.0 * np.pi, rel=1e-14)
    assert (summary["cells"], summary["component_count"], summary["min_radicand"]) == (64, 3, 4.0)


def test_json_writes_non_finite_floats_as_strings_and_empty_containers_inline():
    value = {"nan": float("nan"), "inf": np.inf, "minus_inf": -np.inf, "none": None,
             "list": [], "tuple": (), "array": np.zeros(0), "dict": {}}
    assert cli.to_json(value) == (
        '{\n  "array": [],\n  "dict": {},\n  "inf": "inf",\n  "list": [],\n'
        '  "minus_inf": "-inf",\n  "nan": "nan",\n  "none": null,\n  "tuple": []\n}')


def test_a_proper_time_step_too_large_for_the_gauge_exits_1(tmp_path, capsys):
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
        "gauge: coordinate_time", "gauge: proper_time").replace(
        "velocity: [1.0, 0.6, 0.0, 0.0]", "velocity: [1.25, 0.75, 0.0, 0.0]").replace(
        "step: 0.001", "step: 0.5"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("GaugeViolation: gauge drift 5.109e-05 exceeded 1e-08 at "
                                       "step 0; reduce the step\n")


@pytest.mark.parametrize("metric", ["{kind: euclidean, dim: 1024}",
                                    f"{{kind: constant_diagonal, diagonal: {[1.0] * 1024}}}"])
def test_a_metric_at_the_dimension_cap_is_accepted(metric):
    assert parse_config(f"metric: {metric}\n", "signature").payload["metric"].dim == 1024


RANK3_CHORD = (CONFIGS / "extremize.yaml").read_text().replace(
    "    dim: 4\n", "    dim: 4\n  extra_terms:\n"
    "    - {coupling: 0.2, rank: 3, entries: {'0,0,0': 1.0, '0,1,1': 0.1, '1,1,3': 0.05}}\n")


@pytest.mark.parametrize("text", [(CONFIGS / "extremize.yaml").read_text(), RANK3_CHORD],
                         ids=["shipped", "rank3_chord"])
def test_the_path_csv_holds_k_then_each_point_per_row(tmp_path, monkeypatch, text):
    results = []

    def recording(*args, **kwargs):
        results.append(extremize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "extremize", recording)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main(["extremize", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = [",".join("%.17g" % x for x in [float(k), *pt]) + "\n"
            for k, pt in enumerate(results[0].path.points().tolist())]
    assert (tmp_path / "path.csv").read_text() == "k,x0,x1,x2,x3\n" + "".join(rows)


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_determinant_samples_are_one_normal_then_one_uniform_draw(seed):
    pis, masses = _draw_det_samples(np.random.default_rng(seed), 500)
    rng = np.random.default_rng(seed)
    assert pis.shape == (500, 4) and masses.shape == (500,)
    assert pis.tobytes() == (1.5 * rng.standard_normal((500, 4))).tobytes()
    assert masses.tobytes() == (2.0 * rng.random(500)).tobytes()


GRID_CONFIG = ("embedding: {{kind: grid_csv, path: '{path}', d: 2, dim_m: 3}}\n"
               "spec: {{metric: {{kind: euclidean, dim: 3}}}}\n")


@pytest.mark.parametrize("target", ["non_numeric", "directory"])
def test_unreadable_grid_csv_exits_2_naming_the_path_key(tmp_path, capsys, target):
    if target == "directory":
        path = tmp_path
    else:
        path = tmp_path / "nodes.csv"
        path.write_text("0,0,0,0,0\n0,1,zero,1,0\n")
    config = tmp_path / "brane.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "'embedding.path' (line 1): cannot read" in capsys.readouterr().err


def _write_grid_rows(path, nodes=5):
    """A nodes x nodes grid of a paraboloid graph: rows z1, z2, x1, x2, x3."""
    z = np.linspace(-0.5, 0.5, nodes)
    Z1, Z2 = (a.ravel() for a in np.meshgrid(z, z, indexing="ij"))
    rows = np.column_stack([Z1, Z2, Z1, Z2, 0.3 * Z1 ** 2 + 0.2 * Z1 * Z2])
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    return path.read_text().splitlines()


@pytest.mark.parametrize("text, message", [
    (None, "file '{path}' not found"),
    ("0,0,1,2\n0,1,1,2\n", "expected 5 columns (z then x), got 4"),
    # four nodes on axes of three and two values
    ("0,0,0,0,0\n0,1,0,1,0\n1,0,1,0,0\n2,1,2,1,0\n", "nodes do not form a regular grid"),
], ids=["not_found", "wrong_column_count", "off_a_regular_grid"])
def test_a_bad_grid_csv_exits_2_with_its_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "nodes.csv"
    if text is not None:
        path.write_text(text)
    config = tmp_path / "brane.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: 'embedding.path' (line 1): "
                                       f"{message.format(path=path.as_posix())}\n")


@pytest.mark.parametrize("row, column, value", [
    (7, 4, "inf"), (7, 4, "nan"), (1, 2, "-inf"), (25, 0, "nan"),
])
def test_non_finite_grid_node_exits_2_naming_its_row(tmp_path, capsys, row, column, value):
    path = tmp_path / "nodes.csv"
    lines = _write_grid_rows(path)
    fields = lines[row - 1].split(",")
    fields[column] = value
    lines[row - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    config = tmp_path / "brane.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"data row {row} has a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "# z1,z2,x1,x2,x3\n\n"])
def test_empty_grid_csv_exits_2_without_a_numpy_warning(tmp_path, capsys, recwarn, text):
    path = tmp_path / "nodes.csv"
    path.write_text(text)
    config = tmp_path / "brane.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"file '{path}' has no rows" in capsys.readouterr().err
    assert not recwarn.list


def test_a_repeated_grid_node_is_a_missing_node(tmp_path, capsys):
    path = tmp_path / "nodes.csv"
    lines = _write_grid_rows(path)
    lines[7] = lines[6]  # as many rows as nodes, one node twice and one absent
    path.write_text("\n".join(lines) + "\n")
    config = tmp_path / "brane.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "grid has missing nodes" in capsys.readouterr().err


def _grid_config(tmp_path, path, d=2, dim_m=3):
    """A brane config on the grid file at path, read with the given d and dim_m."""
    config = tmp_path / "brane.yaml"
    config.write_text(f"embedding: {{kind: grid_csv, path: '{path.as_posix()}', d: {d}, "
                      f"dim_m: {dim_m}}}\nspec: {{metric: {{kind: euclidean, dim: 3}}}}\n")
    return config


@pytest.mark.parametrize("d, dim_m, message", [
    (0, 3, "'embedding.d' (line 1) must be >= 1"),
    (-1, 3, "'embedding.d' (line 1) must be >= 1"),
    (1, 0, "'embedding.dim_m' (line 1) must be >= 1"),
    (4, 3, "'embedding.d' (line 1) must be <= dim_m = 3"),
])
def test_grid_csv_d_and_dim_m_are_bounded(tmp_path, capsys, d, dim_m, message):
    path = tmp_path / "nodes.csv"
    path.write_text("0.5,1,2,3\n")
    config = _grid_config(tmp_path, path, d, dim_m)
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("d, text", [
    (1, "0.5,1,2,3\n"),
    (2, "0.5,0,1,0,0\n0.5,0.5,1,0.5,0\n0.5,1,1,1,0\n"),
])
def test_an_axis_of_one_node_exits_2_without_a_warning(tmp_path, capsys, recwarn, d, text):
    path = tmp_path / "nodes.csv"
    path.write_text(text)
    config = _grid_config(tmp_path, path, d)
    assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: 'embedding.path' (line 1): file "
                                       f"'{path.as_posix()}': need at least 2 nodes per axis, "
                                       f"got 1\n")
    assert not recwarn.list


def test_grid_csv_parse_peaks_within_2_1_row_tables(tmp_path):
    # the row table, one flat node index and the node array make 1.8 times
    # the table's bytes (1.86 measured); one more node-sized copy of the x
    # columns on the way, 0.6 times the table, breaks the bound
    small = _grid_config(tmp_path, tmp_path / "small.csv")
    _write_grid_rows(tmp_path / "small.csv")
    parse_config(small.read_text(), "brane")  # first-call imports and caches are not the loader's
    nodes = 257
    _write_grid_rows(tmp_path / "nodes.csv", nodes)
    text = _grid_config(tmp_path, tmp_path / "nodes.csv").read_text()
    tracemalloc.start()
    try:
        parse_config(text, "brane")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * nodes ** 2 * 5 * 8


@pytest.mark.parametrize("which", ["brane.yaml", "grid_csv"])
def test_brane_summary_is_byte_identical_on_rerun(tmp_path, which):
    if which == "grid_csv":
        _write_grid_rows(tmp_path / "nodes.csv", nodes=300)
        config = tmp_path / "grid.yaml"
        config.write_text(GRID_CONFIG.format(path=(tmp_path / "nodes.csv").as_posix()))
    else:
        config = CONFIGS / which
    for out in ("first", "second"):
        assert main(["brane", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "first" / "brane_summary.json").read_bytes()
    assert first == (tmp_path / "second" / "brane_summary.json").read_bytes()
    assert json.loads(first)["cells"] == (128 ** 2 if which == "brane.yaml" else 299 ** 2)


split = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


def _cut(path):
    """Where the split starts the second half: past the first line break after the middle byte."""
    data = path.read_bytes()
    return data.index(b"\n", len(data) // 2) + 1


@pytest.fixture
def two_cpus(monkeypatch):
    """Split every grid file of at least 1 byte, whatever the host's CPU count."""
    monkeypatch.setattr(cli, "SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _laid_out(lines, newline="\n", every=None, filler="", shuffle=False, final=True):
    """lines joined by newline, shuffled, or with filler after every every-th line."""
    if shuffle:
        lines = [lines[i] for i in np.random.default_rng(5).permutation(len(lines))]
    if every:
        lines = [out for i, line in enumerate(lines)
                 for out in ([line, filler] if i % every == every - 1 else [line])]
    return newline.join(lines) + (newline if final else "")


@split
@pytest.mark.parametrize("layout", [
    {}, {"shuffle": True}, {"newline": "\r\n"}, {"final": False},
    {"every": 1, "filler": "# a comment line"}, {"every": 1, "filler": ""},
    {"every": 3, "filler": "# z1,z2,x1,x2,x3", "newline": "\r\n"},
], ids=["sorted", "shuffled", "crlf", "no_final_newline", "comments", "blank_lines",
        "crlf_comments"])
def test_the_halves_are_one_process_loadtxt_bit_for_bit(tmp_path, two_cpus, layout):
    # with a comment or blank line after every row, one sits at the cut
    path = tmp_path / "nodes.csv"
    path.write_bytes(_laid_out(_write_grid_rows(path, 9), **layout).encode())
    blocks = cli._grid_rows(path)
    assert len(blocks) == 2 and all(len(rows) for rows in blocks)
    whole = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@split
@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
def test_a_split_grid_gives_the_one_table_summary(tmp_path, monkeypatch, shuffle):
    path = tmp_path / "nodes.csv"
    path.write_text(_laid_out(_write_grid_rows(path, 40), shuffle=shuffle))
    config = tmp_path / "grid.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    summaries = []
    for cpus, out in (({0}, "one"), ({0, 1}, "two")):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert main(["brane", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        summaries.append((tmp_path / out / "brane_summary.json").read_bytes())
    assert summaries[0] == summaries[1]


@split
@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize("column, value", [(2, "zero"), (4, "inf"), (0, "-nan"), (4, "1,2")],
                         ids=["bad_token", "inf", "nan", "extra_column"])
def test_a_bad_value_in_either_half_exits_2_with_the_one_table_message(
        tmp_path, capsys, monkeypatch, half, column, value):
    path = tmp_path / "nodes.csv"
    lines = _write_grid_rows(path, 9)
    head_rows = path.read_bytes()[:_cut(path)].count(b"\n")
    row = 3 if half == "first" else head_rows + 4
    fields = lines[row - 1].split(",")
    fields[column] = value
    lines[row - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert (row <= path.read_bytes()[:_cut(path)].count(b"\n")) == (half == "first")
    error = _one_table_and_split_error(tmp_path, capsys, monkeypatch, path)
    if value in ("inf", "-nan"):
        assert f"data row {row} has a non-finite value" in error
    else:
        assert "cannot read" in error


def _one_table_and_split_error(tmp_path, capsys, monkeypatch, path):
    """The one stderr line of a brane run on the grid at path, alike with and without the split."""
    config = tmp_path / "grid.yaml"
    config.write_text(GRID_CONFIG.format(path=path.as_posix()))
    errors = []
    for split_bytes in (10 ** 12, 1):
        monkeypatch.setattr(cli, "SPLIT_BYTES", split_bytes)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["brane", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].count("\n") == 1
    assert not (tmp_path / "out").exists()
    return errors[0]


@split
def test_halves_of_different_widths_exit_2_with_the_one_table_message(
        tmp_path, capsys, monkeypatch):
    # each half parses alone, so only the split's own width check sees this
    path = tmp_path / "nodes.csv"
    lines = [line + "\n" for line in _write_grid_rows(path, 9)]
    for k in range(len(lines)):  # the k rows before the cut keep 5 columns
        head = "".join(lines[:k])
        path.write_text(head + "".join(line[:-1] + ",0\n" for line in lines[k:]))
        if _cut(path) == len(head):
            break
    assert _cut(path) == len(head)
    error = _one_table_and_split_error(tmp_path, capsys, monkeypatch, path)
    assert "the number of columns changed from 5 to 6" in error


@split
def test_a_child_that_exits_non_zero_leaves_the_one_table(tmp_path, monkeypatch, two_cpus):
    path = tmp_path / "nodes.csv"
    _write_grid_rows(path, 9)
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(3))  # only the child calls it
    assert cli._split_rows(path) is None
    assert len(cli._grid_rows(path)) == 1


@split
@pytest.mark.parametrize("case", ["one_cpu", "a_thread", "small_file"])
def test_the_split_forks_only_with_two_cpus_one_thread_and_a_large_file(
        tmp_path, monkeypatch, two_cpus, case):
    path = tmp_path / "nodes.csv"
    _write_grid_rows(path, 9)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert len(cli._grid_rows(path)) == 2 and forks == [1]  # the control: it does split

    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif case == "a_thread":
        waiter.start()
    else:
        monkeypatch.setattr(cli, "SPLIT_BYTES", path.stat().st_size + 1)
    try:
        blocks = cli._grid_rows(path)
    finally:
        release.set()
    if case == "a_thread":
        waiter.join(timeout=10)
        assert not waiter.is_alive()
    assert len(blocks) == 1 and forks == [1]
    assert blocks[0].tobytes() == np.loadtxt(path, delimiter=",", ndmin=2).tobytes()


@pytest.mark.parametrize("subcommand,line", [("brane", 12), ("simulate", 4), ("extremize", 4)])
def test_negative_mass_exits_2_naming_the_key(tmp_path, capsys, subcommand, line):
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    assert text.splitlines()[line - 1].strip() == "mass: 1.0"
    config = tmp_path / "config.yaml"
    config.write_text(text.replace("mass: 1.0", "mass: -1.0"))
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"'spec.mass' (line {line}) must be >= 0" in capsys.readouterr().err


def _tensor_config(tmp_path, entries):
    """simulate.yaml, shortened, with one rank-3 term: (path, line of its entries key)."""
    line = f"      entries: {entries}"
    text = (CONFIGS / "simulate.yaml").read_text().replace(
        "gauge:", f"  extra_terms:\n    - coupling: 0.2\n      rank: 3\n{line}\ngauge:").replace(
        "tau_end: 10.0", "tau_end: 0.5").replace("step: 0.001", "step: 0.01")
    config = tmp_path / "simulate.yaml"
    config.write_text(text)
    return config, text.splitlines().index(line) + 1


@pytest.mark.parametrize("entries, message", [
    ("{}", "must be a non-empty mapping"),
    ("[1.0]", "must be a non-empty mapping"),
    ("{'0,x,1': 1.0}", "bad multi-index '0,x,1'"),
    ("{'0,0': 1.0}", "index '0,0' does not have rank 3"),
    ("{'0,0,4': 1.0}", "index '0,0,4' out of range for dim 4"),
    ("{'0,0,1': 1.0, '1,0,0': 2.0}", "duplicate multi-index (0, 0, 1)"),
    ("{'0,0,0': big}", "value for '0,0,0' must be a number"),
    ("{'0,0,0': true}", "value for '0,0,0' must be a number"),
], ids=["empty", "not_a_mapping", "bad_index", "wrong_rank", "out_of_range", "duplicate",
        "not_a_number", "boolean"])
def test_bad_tensor_entries_exit_2_naming_the_key(tmp_path, capsys, entries, message):
    config, line = _tensor_config(tmp_path, entries)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"'spec.extra_terms.0.entries' (line {line})" in err
    assert message in err
    assert not (tmp_path / "out").exists()


def test_unsorted_tensor_index_warns_and_runs_as_sorted(tmp_path, capsys):
    trajectories = []
    for name, entries in (("unsorted", "{'0,0,0': 1.0, '1,1,0': 0.1}"),
                          ("sorted", "{'0,0,0': 1.0, '0,1,1': 0.1}")):
        config, _ = _tensor_config(tmp_path, entries)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        trajectories.append((tmp_path / name / "trajectory.csv").read_bytes())
        warned = "tensor entry index (1, 1, 0) normalized to sorted form (0, 1, 1)"
        assert (warned in capsys.readouterr().err) == (name == "unsorted")
    assert trajectories[0] == trajectories[1]


def test_csv_rows_match_the_per_value_format(tmp_path):
    special = [-0.0, 0.0, 5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf, 1.0 / 3.0, -2.5e-7]
    scales = 10.0 ** np.arange(-4, 3)[:, None]
    rows = np.vstack([np.random.default_rng(0).normal(size=(7, len(special))) * scales, special])
    n = len(rows)
    alternate = np.arange(n) % 2 == 1
    # columns whose bits are all equal are formatted once; the mixed signs of
    # zero and of nan have equal values or equal text but not equal bits
    constant = np.column_stack([
        np.full(n, -0.0), np.where(alternate, 0.0, -0.0), np.full(n, np.nan),
        np.where(alternate, np.nan, -np.nan), np.full(n, np.inf), np.full(n, 7.0),
        np.full(n, 1 / 3)])
    tables = {"rows": rows, "constant": np.hstack([constant[:, :3], rows, constant[:, 3:]]),
              "one_row": rows[-1:], "one_row_constant": constant[:1], "empty": rows[:0]}
    for name, table in tables.items():
        header = [f"c{i}" for i in range(table.shape[1])]
        _write_csv(tmp_path / f"{name}.csv", header, table)
        _write_csv(tmp_path / f"{name}_list.csv", header, list(table))
        reference = ",".join(header) + "\n" + "".join(
            ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in table)
        assert (tmp_path / f"{name}.csv").read_text() == reference, name
        assert (tmp_path / f"{name}_list.csv").read_text() == reference, name
    text = (tmp_path / "rows.csv").read_text()
    assert "-0,0,4.9406564584124654e-324,1e+308,-1e+308,nan,inf,-inf," in text
    lines = (tmp_path / "constant.csv").read_text().splitlines()
    assert lines[1].startswith("-0,-0,nan,") and lines[2].startswith("-0,0,nan,")
    assert lines[1].endswith(",nan,inf,7,0.33333333333333331")
    assert (tmp_path / "one_row_constant.csv").read_text().splitlines()[1] == (
        "-0,-0,nan,nan,inf,7,0.33333333333333331")


def test_rewriting_an_out_directory_leaves_the_bytes_of_a_fresh_one(tmp_path):
    # outputs are overwritten in place and then cut, so a shorter rewrite must
    # leave no tail of the longer file before it
    long = (CONFIGS / "simulate.yaml").read_text().replace("tau_end: 10.0", "tau_end: 0.2")
    short = long.replace("tau_end: 0.2", "tau_end: 0.1")
    config, shared = tmp_path / "simulate.yaml", tmp_path / "shared"
    for i, text in enumerate([long, long, short]):
        config.write_text(text)
        fresh = tmp_path / f"fresh{i}"
        for out in (shared, fresh):
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in shared.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in fresh.iterdir():
            assert (shared / path.name).read_bytes() == path.read_bytes(), (i, path.name)
    assert len((shared / "trajectory.csv").read_bytes().splitlines()) == 102


def test_every_output_is_written_by_the_one_writer(tmp_path, monkeypatch):
    written = []
    write_out = cli._write_out

    def recording(path, text):
        written.append(path)
        write_out(path, text)

    monkeypatch.setattr(cli, "_write_out", recording)
    for config in SHIPPED:
        written.clear()
        out = tmp_path / config.stem
        _, artifacts = run(config.stem, parse_config(config.read_text(), config.stem), out)
        assert sorted(written) == sorted(artifacts) == sorted(out.iterdir()), config.name


def test_repeated_main_calls_each_get_their_own_arguments(tmp_path, capsys):
    config = str(CONFIGS / "signature.yaml")
    for call in range(6):
        seed = ["--seed", str(call)] if call % 2 else []
        json_flag = ["--json"] if call % 3 == 0 else []
        out = tmp_path / str(call)
        assert main(["signature", "--config", config, "--out", str(out), *seed, *json_flag]) == 0
        summary = json.loads((out / "signature_summary.json").read_text())
        assert summary["seed"] == (call if call % 2 else 0)
        printed = capsys.readouterr().out
        assert (json.loads(printed) == summary) if json_flag else printed == ""
    # one parser serves every call, and importing the cli does not build it
    assert _arg_parser.cache_info().currsize == 1
    code = "import repmech.cli; print(repmech.cli._arg_parser.cache_info().currsize)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_importing_the_cli_loads_no_scipy():
    # every CLI process pays the import: scipy.interpolate alone costs several
    # times numpy's start-up, and nothing in the program needs it
    code = "import sys, repmech.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
