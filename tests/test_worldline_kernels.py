"""The emitted RK4 marches of worldline and their unrolled elimination.

oracles.constant_field_orbit_lists marches the list-form RK4 step with the
two hand-written constant-field derivatives (EM only, in either gauge, and
the eliminated Hessian) that the emitted marches reproduce, and
oracles._eliminate is the list loop that the unrolled solve reproduces.
Trajectories and solutions are compared on their bytes, so a zero of either
sign counts; error messages with ==.
"""

import ast
import io
import linecache
import math
import os
import subprocess
import sys
import tokenize
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _eliminate, constant_field_orbit_lists
import repmech.worldline as worldline
from repmech import (
    DimensionMismatch,
    GaugeChoice,
    GaugeViolation,
    LagrangianSpec,
    NegativeEvenRadicand,
    NullVelocity,
    SingularReducedHessian,
    SpacelikeVelocity,
    ZeroRadicand,
    constant_diagonal_metric,
    constant_metric,
    constant_potential,
    integrate,
    minkowski_metric,
    symmetric_tensor,
    uniform_magnetic_potential,
    zero_potential,
)

SRC = Path(__file__).resolve().parent.parent / "src"
GAUGES = list(GaugeChoice)


def _metrics(dim):
    diagonal = [1.5] + [-1.0 - 0.5 * i for i in range(dim - 1)]
    full = np.diag(diagonal)
    full[0, 1] = full[1, 0] = 0.2
    full[-1, -2] = full[-2, -1] = 0.1
    return {"minkowski": minkowski_metric(dim), "diagonal": constant_diagonal_metric(diagonal),
            "full": constant_metric(full)}


def _potentials(dim):
    """(potential, charge) pairs: zero, constant, magnetic, and magnetic with q = 0
    (constant with q = 0 in dimension 2, which has no spatial plane)."""
    constant = constant_potential(np.linspace(0.3, -0.2, dim))
    if dim == 2:
        return [(zero_potential(dim), 0.7), (constant, 0.7), (constant, 0.0)]
    magnetic = uniform_magnetic_potential(dim, 1.1)
    return [(zero_potential(dim), 0.7), (constant, 0.7), (magnetic, 0.7), (magnetic, 0.0)]


def _terms(dim):
    """No term, a rank-3 term, a rank-3 term with a negative radicand, a rank-4 term."""
    last = dim - 1
    rank3 = {(0, 0, 0): 1.0, (0, 1, 1): 0.1, (0, 1, last): -0.05, (1, 1, last): 0.2}
    rank4 = {(0, 0, 0, 0): 1.0, (0, 0, 1, 1): 0.1, (0, 1, 1, last): 0.07, (1, 1, 1, last): -0.05}
    return [(), ((0.2, symmetric_tensor(3, dim, rank3)),),
            ((0.2, symmetric_tensor(3, dim, {(0, 0, 0): -1.0, (0, 1, 1): 0.1})),),
            ((-0.3, symmetric_tensor(4, dim, rank4)),)]


def _initial(spec, gauge):
    """A timelike start with one zero velocity component from dim 3 on."""
    dim = spec.dim
    x0 = np.linspace(-0.3, 0.4, dim)
    v0 = np.array([1.0, 0.3, 0.0, -0.2, 0.1][:dim])
    if gauge is GaugeChoice.PROPER_TIME:
        v0 = v0 / np.sqrt(v0 @ spec.metric(x0) @ v0)
    return x0, v0


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("metric", ["minkowski", "diagonal", "full"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_trajectories_equal_the_list_reference_bit_for_bit(dim, metric, gauge):
    proper = gauge is GaugeChoice.PROPER_TIME
    n, h = 20, 0.05
    for potential, charge in _potentials(dim):
        for terms in _terms(dim):
            spec = LagrangianSpec(metric=_metrics(dim)[metric], mass=1.3, charge=charge,
                                  potential=potential, extra_terms=terms)
            assert worldline._constant_fields(spec)
            wl = integrate(spec, gauge, *_initial(spec, gauge), n * h, h)
            x, v = constant_field_orbit_lists(spec, proper, wl.x[0], wl.v[0], n, h)
            assert wl.x.tobytes() == x.tobytes()
            assert wl.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_only_a_tensor_term_takes_the_elimination_body(dim, gauge):
    proper = gauge is GaugeChoice.PROPER_TIME
    for metric in _metrics(dim).values():
        for potential, charge in _potentials(dim):
            for terms in _terms(dim):
                spec = LagrangianSpec(metric=metric, mass=1.3, charge=charge,
                                      potential=potential, extra_terms=terms)
                emit = worldline._constant_field_pattern(spec, proper)[0]
                assert emit is (worldline._emit_elimination if terms else worldline._emit_em)


def _one_step(spec, gauge, x, v, h):
    """One step of the spec's compiled march and of the list reference, from
    (x, v), as arrays of the (x^i, u^i) or (x^a, v^a) states."""
    proper = gauge is GaugeChoice.PROPER_TIME
    march = worldline._compiled_march(spec, gauge)
    if proper:
        zs, _ = march(0.0, x + v, 1, h)
    else:
        zs = march(x[0], x[1:] + v[1:], 1, h)
    xs, vs = constant_field_orbit_lists(spec, proper, x, v, 1, h)
    lo = 0 if proper else 1
    reference = np.column_stack([xs[:, lo:], vs[:, lo:]])
    return np.asarray(zs).reshape(reference.shape), reference


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("dim", [2, 4, 5])
def test_one_step_marches_equal_the_list_reference_at_random_states(dim, gauge):
    proper = gauge is GaugeChoice.PROPER_TIME
    rng = np.random.default_rng(dim)
    for metric in _metrics(dim).values():
        for potential, charge in _potentials(dim):
            for terms in _terms(dim):
                spec = LagrangianSpec(metric=metric, mass=0.9, charge=charge,
                                      potential=potential, extra_terms=terms)
                for _ in range(5):
                    v = np.concatenate(([rng.uniform(1.0, 1.3)],
                                        rng.uniform(-0.25, 0.25, dim - 1)))
                    if proper:
                        v = v / np.sqrt(v @ spec.metric(np.zeros(dim)) @ v)
                    x = rng.uniform(-1.0, 1.0, dim).tolist()
                    fast, reference = _one_step(spec, gauge, x, v.tolist(), 0.01)
                    assert fast.tobytes() == reference.tobytes()


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("start", [0.0, -0.0, 0.3], ids=["plus_zero", "minus_zero", "nonzero"])
@pytest.mark.parametrize("metric", ["minkowski", "diagonal"])
@pytest.mark.parametrize("dim", [4, 5])
def test_a_force_free_velocity_keeps_the_list_references_bits(dim, metric, start, gauge):
    """v^3 feels no magnetic force in the (1, 2) plane, so the march carries it as
    u = z + 0.0; from -0.0 the list reference's stage values read +0.0 too."""
    proper = gauge is GaugeChoice.PROPER_TIME
    spec = LagrangianSpec(metric=_metrics(dim)[metric], mass=1.3, charge=0.7,
                          potential=uniform_magnetic_potential(dim, 1.1))
    emit, pattern, _ = worldline._constant_field_pattern(spec, proper)
    source = "\n".join(worldline._emit_march(emit(*pattern)))
    lo = 0 if proper else 1  # coordinate time leaves x^0 and v^0 out of the state
    spectator = dim - lo + 3 - lo  # the state index of v^3
    assert f"u{spectator} = z{spectator} + 0.0" in source
    x0, v0 = _initial(spec, gauge)
    v0[3] = start
    if proper:
        v0 = v0 / np.sqrt(v0 @ spec.metric(x0) @ v0)
    n, h = 20, 0.05
    wl = integrate(spec, gauge, x0, v0, n * h, h)
    assert np.signbit(wl.v[0, 3]) == np.signbit(start)
    x, v = constant_field_orbit_lists(spec, proper, wl.x[0], wl.v[0], n, h)
    assert wl.x.tobytes() == x.tobytes()
    assert wl.v.tobytes() == v.tobytes()


def _dead_stores(source):
    """The names that an assignment in the march's loop sets and that nothing
    reads before they are set again, around the loop, nor after it."""
    march = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "march")
    loop = next(node for node in march.body if isinstance(node, ast.For))
    after = {n.id for stmt in march.body[march.body.index(loop) + 1:] for n in ast.walk(stmt)
             if isinstance(n, ast.Name)}

    def names(stmt, ctx):
        found = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}
        if ctx is ast.Load and isinstance(stmt, ast.AugAssign):
            found.add(stmt.target.id)  # x += y reads x
        return found

    loads = [names(stmt, ast.Load) for stmt in loop.body]
    stores = [names(stmt, ast.Store) for stmt in loop.body]
    dead = []
    for i, stored in enumerate(stores):
        for name in sorted(stored):
            # the statements after this one, then the next pass up to this one;
            # a statement reads before it stores
            for j in [*range(i + 1, len(stores)), *range(i + 1)]:
                if name in loads[j]:
                    break
                if name in stores[j]:  # set again: live only if the loop ends first
                    if j > i or name not in after:
                        dead.append(name)
                    break
    return dead


def _emitted_patterns():
    """(emitter, pattern) of each march that these tests compile: every
    constant-field spec of _metrics, _potentials and _terms, and the
    varying-field bodies, in both gauges and dimensions 2 to 5."""
    patterns = {}
    for dim in (2, 3, 4, 5):
        for proper in (False, True):
            for metric in _metrics(dim).values():
                for potential, charge in _potentials(dim):
                    for terms in _terms(dim):
                        spec = LagrangianSpec(metric=metric, mass=1.3, charge=charge,
                                              potential=potential, extra_terms=terms)
                        emit, pattern, _ = worldline._constant_field_pattern(spec, proper)
                        patterns[(emit.__name__,) + pattern] = emit, pattern
            patterns[("_emit_generic", proper, dim)] = worldline._emit_generic, (proper, dim)
    return list(patterns.values())


def test_every_name_the_march_loop_assigns_is_read():
    patterns = _emitted_patterns()
    assert len(patterns) >= 100
    for emit, pattern in patterns:
        source = "\n".join(worldline._emit_march(emit(*pattern)))
        assert _dead_stores(source) == [], (emit.__name__, pattern)


def test_the_dead_store_lint_finds_a_dead_store():
    def accel(_t, _x, v, out):
        return [f"{o} = -{vi}" for o, vi in zip(out, v)] + ["spare = 2.0"]

    source = "\n".join(worldline._emit_march(worldline._Body(["w"], 2, accel, None)))
    assert _dead_stores(source) == ["spare"] * 4


ERROR_CASES = [
    ((), [1.0, 1.5, 0.0, 0.0], SpacelikeVelocity, "_outside_cone"),
    ((), [1.0, 1.0, 0.0, 0.0], NullVelocity, "_outside_cone"),
    (((0.2, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (1, 1, 1): -8.0})),),
     [1.0, 0.5, 0.0, 0.0], ZeroRadicand, "_checked_radicand"),
    (((0.2, symmetric_tensor(4, 4, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): -32.0})),),
     [1.0, 0.5, 0.0, 0.0], NegativeEvenRadicand, "_checked_radicand"),
    (((1.0, symmetric_tensor(3, 4, {(0, 0, 0): 1.0, (0, 1, 1): 0.5})),),
     [1.0, 0.0, 0.0, 0.0], SingularReducedHessian, "_singular"),
]


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("terms, v, error, call", ERROR_CASES,
                         ids=["spacelike", "null", "zero-radicand", "negative-even-radicand",
                              "singular"])
def test_kernel_errors_keep_class_message_and_source_line(monkeypatch, terms, v, error, call,
                                                          gauge):
    monkeypatch.setattr(worldline, "_KERNELS", {})  # compile afresh: linecache may be cleared
    spec = LagrangianSpec(metric=minkowski_metric(4), mass=1.0, charge=0.5,
                          potential=uniform_magnetic_potential(4, 1.0), extra_terms=terms)
    proper = gauge is GaugeChoice.PROPER_TIME
    x = [0.5, 0.1, -0.2, 0.3]
    with pytest.raises(error) as expected:
        constant_field_orbit_lists(spec, proper, x, v, 1, 0.01)
    with pytest.raises(error) as raised:
        _one_step(spec, gauge, x, v, 0.01)
    assert str(raised.value) == str(expected.value)
    frames = traceback.extract_tb(raised.tb)
    kernel = [f for f in frames if f.filename.startswith("<repmech.worldline")]
    assert kernel and call in kernel[-1].line


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("terms", [(), _terms(4)[1]], ids=["em", "tensor"])
def test_a_march_past_the_float_range_names_the_overflow(terms, gauge):
    """g(v, v) of a stage overflows to -inf: the kernel's cone check names it
    instead of calling v spacelike."""
    spec = LagrangianSpec(metric=minkowski_metric(4), mass=1.0, charge=1.0,
                          potential=uniform_magnetic_potential(4, 1e300), extra_terms=terms)
    with pytest.raises(DimensionMismatch, match=r"^g\(v, v\) overflows to -inf$"):
        integrate(spec, gauge, *_initial(spec, gauge), 0.1, 0.01)
    # a nan state fails every comparison, so the check reads "not gvv > 0"
    lo = 0 if gauge is GaugeChoice.PROPER_TIME else 1
    state = [0.0, 0.1, 0.2, 0.3][lo:] + [1.0, 0.3, math.nan, 0.0][lo:]
    with pytest.raises(DimensionMismatch, match=r"^g\(v, v\) overflows to nan$"):
        worldline._compiled_march(spec, gauge)(0.0, state, 1, 0.01)


def test_the_step_end_cone_check_names_an_overflow():
    with pytest.raises(DimensionMismatch, match=r"^g\(v, v\) overflows to nan at step 3$"):
        worldline._left_cone(math.nan, 3)
    with pytest.raises(GaugeViolation, match=r"^proper-time velocity left the cone at step 3$"):
        worldline._left_cone(-0.5, 3)


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_an_elimination_kernel_holds_one_elimination(dim, gauge):
    proper = gauge is GaugeChoice.PROPER_TIME
    spec = LagrangianSpec(metric=_metrics(dim)["full"], mass=1.3, charge=0.7,
                          potential=_potentials(dim)[1][0], extra_terms=_terms(dim)[-1])
    emit, pattern, _ = worldline._constant_field_pattern(spec, proper)
    source = "\n".join(worldline._emit_march(emit(*pattern)))
    # one _singular call per column of the solved system, not one per stage and column
    assert source.count("_singular(") == (dim + 1 if proper else dim - 1)


def emitted_solve(n):
    """solve(A, b) running the unrolled elimination that the kernels call."""
    x = [f"x{i}" for i in range(n)]
    names = [f"a{i}_{j}" for i in range(n) for j in range(n)] + [f"b{i}" for i in range(n)]
    namespace = {"_singular": worldline._singular}
    exec("\n".join(worldline._function("solve", names, worldline._solve_lines(n, x), x)),
         namespace)
    return lambda A, b: namespace["solve"](*(a for row in A for a in row), *b)


SOLVES = {n: emitted_solve(n) for n in range(1, 6)}


def _outcome(solve, A, b):
    """The solution's bytes, or the class and message of the error raised."""
    try:
        return np.array(solve([list(row) for row in A], list(b))).tobytes()
    except SingularReducedHessian as exc:
        return type(exc), str(exc)


def test_elimination_solves_and_refuses_a_singular_system():
    rng = np.random.default_rng(3)
    for n in (1, 3, 5):
        A, b = rng.normal(size=(n, n)), rng.normal(size=n)
        x = SOLVES[n](A.tolist(), b.tolist())
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-12
    with pytest.raises(SingularReducedHessian, match=r"^velocity Hessian system singular "
                                                     r"\(column 1\)$"):
        SOLVES[2]([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])
    with pytest.raises(SingularReducedHessian, match=r"\(column 0\)$"):
        SOLVES[2]([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])


# entries that tie pivot magnitudes, give exactly zero multipliers and carry
# both signs of zero, mixed with general floats
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0]),
                    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    A = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    return A, draw(st.lists(ENTRIES, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(systems())
def test_the_unrolled_solve_matches_the_list_loop(system):
    A, b = system
    assert _outcome(SOLVES[len(b)], A, b) == _outcome(_eliminate, A, b)


@pytest.mark.parametrize("A, b", [
    ([[1.0, 2.0], [-1.0, 0.5]], [1.0, 2.0]),                       # tied pivot: first row kept
    ([[-0.0, 2.0], [0.0, 1.0]], [1.0, -0.0]),                      # zero column: singular
    ([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, -0.0, 4.0]], [1.0, -0.0, 2.0]),  # zero multipliers
    ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]], [1.0, 2.0, 3.0]),    # pivot by a swap
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]], [1.0, 2.0, 3.0]),    # singular column 1
])
def test_the_unrolled_solve_matches_the_list_loop_on_edge_systems(A, b):
    assert _outcome(SOLVES[len(b)], A, b) == _outcome(_eliminate, A, b)


def test_the_march_refuses_a_body_or_constant_that_takes_its_names():
    def accel(_t, x, _v, out):
        return [f"{o} = -w * {xi}" for o, xi in zip(out, x)]

    def body(params, extra=(), norm2=None, shared=()):
        return worldline._Body(params, 2, lambda *a: [*extra, *accel(*a)], norm2, [*shared])

    assert worldline._emit_march(body(["w"]))
    # a constant named like a stage output would be overwritten by the stage
    with pytest.raises(AssertionError, match=r"\['k1_0'\]"):
        worldline._emit_march(body(["w", "k1_0"]))
    with pytest.raises(AssertionError, match=r"\['hh', 'y2_1'\]"):
        worldline._emit_march(body(["w"], ["hh = 2.0", "y2_1 = hh"]))
    with pytest.raises(AssertionError, match=r"\['nrm'\]"):
        worldline._emit_march(body(["w"], norm2=lambda _x, v: ["nrm = 1.0", "gvv = nrm"]))
    with pytest.raises(AssertionError, match=r"\['tol'\]"):
        worldline._emit_march(body(["w", "tol"]))
    # shared lines run inside the march, so a name of theirs would read the march's own
    assert worldline._emit_march(body(["w"], shared=["def f(u):", "    return w * u"]))
    with pytest.raises(AssertionError, match=r"\['hh'\]"):
        worldline._emit_march(body(["w"], shared=["def f(u):", "    return hh * u"]))


def _numbers(source):
    """Every number token of a source, and whether it holds a string token."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    return ({t.string for t in tokens if t.type == tokenize.NUMBER},
            any(t.type == tokenize.STRING for t in tokens))


def _orbit_specs(rng, count):
    """Specs drawn as the orbits benchmark draws them: (spec, gauge, x0, v0) per class."""
    out = []
    for k in range(count):
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.25))
        mass = float(rng.uniform(0.5, 2.0))
        terms = ()
        if k % 3 == 1:
            terms = ((float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)),
                      symmetric_tensor(3, 4, {(0, 0, 0): float(rng.uniform(0.5, 2.0))})),)
        spec = LagrangianSpec(metric=minkowski_metric(4), mass=mass, charge=mass / abs(b),
                              potential=uniform_magnetic_potential(4, b), extra_terms=terms)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        v0 = np.array([1.0, 0.6 * np.cos(phi), 0.6 * np.sin(phi), 0.0])
        gauge = GaugeChoice.PROPER_TIME if k % 3 == 2 else GaugeChoice.COORDINATE_TIME
        if gauge is GaugeChoice.PROPER_TIME:
            v0 = 1.25 * v0
        out.append((spec, gauge, rng.uniform(-1.0, 1.0, 4), v0))
    return out


def test_one_kernel_per_pattern_and_no_value_in_any_source(monkeypatch):
    monkeypatch.setattr(worldline, "_KERNELS", {})
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(worldline, "compile", counting, raising=False)
    specs = _orbit_specs(np.random.default_rng(19), 100)
    for spec, gauge, x0, v0 in specs:
        integrate(spec, gauge, x0, v0, 0.1, 0.05)
    # one march per pattern: EM in each gauge from one body, and the coordinate tensor
    assert len(compiled) == len(set(compiled)) == len(worldline._KERNELS) == 3
    assert sorted(key[0] for key in worldline._KERNELS) == ["_emit_elimination", "_emit_em",
                                                            "_emit_em"]
    for key in worldline._KERNELS:
        source = "".join(linecache.getlines(f"<repmech.worldline{key}>"))
        body = getattr(worldline, key[0])(*key[1:])
        assert source == "\n".join(worldline._emit_march(body)) + "\n"
        numbers, strings = _numbers(source)
        assert not strings
        assert numbers <= {"0.0", "0.5", "1.0", "2.0", "6.0"} | {n for n in numbers
                                                                if n.isdigit()}
    # specs of one pattern share one factory, whatever their couplings
    first, second = specs[0][0], specs[3][0]
    assert first.mass != second.mass
    assert worldline._compiled_march(first, GaugeChoice.COORDINATE_TIME).__code__ \
        is worldline._compiled_march(second, GaugeChoice.COORDINATE_TIME).__code__


def test_importing_the_cli_compiles_no_kernel():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import repmech.cli, repmech.worldline as w; print(len(w._KERNELS))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"
