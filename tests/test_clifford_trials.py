"""A clifford run's trials drawn, checked and solved as stacks, against a loop over trials."""

import collections
import re
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import per_trial_clifford_summary
from repmech import FormMismatch, build_dirac_gammas, clifford, cli, perturb_gammas
from repmech.cli import TRIAL_BLOCK, parse_config, run, to_json

HEADER = {"subcommand", "version", "config_digest", "seed"}


def _clifford_text(algebra, form, perturbation, trials, seed=0, det_samples=20):
    return (f"seed: {seed}\nalgebra: {algebra}\nform: {form}\nperturbation: {perturbation}\n"
            f"trials: {trials}\ndet_samples: {det_samples}\n")


def _assert_run_matches_loop(tmp_path, text):
    cfg = parse_config(text, "clifford")
    summary, _ = run(cfg, tmp_path)
    fields = {k: v for k, v in summary.items() if k not in HEADER}
    # the JSON holds every float to its last bit
    assert to_json(fields) == to_json(per_trial_clifford_summary(cfg.payload, cfg.seed))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("form", ["minkowski", "euclidean"])
@pytest.mark.parametrize("algebra", ["lorentz", "so3", "abelian"])
def test_stacked_run_is_bit_equal_to_the_per_trial_loop(tmp_path, algebra, form, seed):
    for perturbation in (0.0, 5e-4, 2e-3, 0.3):
        for trials in range(1, 6):
            _assert_run_matches_loop(tmp_path, _clifford_text(algebra, form, perturbation,
                                                              trials, seed))


def test_a_run_past_one_block_keeps_the_draw_order(tmp_path):
    # the trials of the second block, and the determinant samples, follow the first block's draws
    _assert_run_matches_loop(tmp_path, _clifford_text("so3", "minkowski", 1e-3,
                                                      TRIAL_BLOCK + 2, seed=3))


def test_a_stack_of_trials_is_the_stream_of_single_draws():
    gam = build_dirac_gammas("minkowski")
    stack = perturb_gammas(gam, 1e-3, np.random.default_rng(4), trials=3)
    rng = np.random.default_rng(4)
    singles = [perturb_gammas(gam, 1e-3, rng) for _ in range(3)]
    assert stack.matrices.shape == (3, 4, 4, 4) and stack.residual.shape == (3,)
    np.testing.assert_array_equal(stack.matrices, [s.matrices for s in singles])
    np.testing.assert_array_equal(stack.residual, [s.residual for s in singles])


@pytest.mark.parametrize("trials", [1, 3])
def test_an_overflowing_perturbation_raises_as_the_loop_does(trials):
    payload = parse_config(_clifford_text("so3", "minkowski", 1e300, trials),
                           "clifford").payload
    message = re.escape("perturbation 1e+300 overflows the anticommutator residual")
    with pytest.raises(FormMismatch, match=f"^{message}$"):
        per_trial_clifford_summary(payload, 0)
    with pytest.raises(FormMismatch, match=f"^{message}$"):
        perturb_gammas(build_dirac_gammas("minkowski"), 1e300, np.random.default_rng(0), trials)


def test_a_perturbed_run_builds_one_product_basis_and_solves_each_trial(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    lstsq = np.linalg.lstsq

    def lstsq_by_caller(*args, **kwargs):
        calls["lstsq in " + sys._getframe(1).f_code.co_name] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(clifford, "_product_basis", counted("basis", clifford._product_basis))
    monkeypatch.setattr(cli, "solve_quadratic_generators",
                        counted("solve", cli.solve_quadratic_generators))
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_by_caller)
    trials = 5
    run(parse_config(_clifford_text("lorentz", "minkowski", 1e-3, trials), "clifford"), tmp_path)
    assert calls["basis"] == 1 and calls["solve"] == 1
    assert calls["lstsq in solve_quadratic_generators"] == trials


def test_memory_is_bounded_in_trials(tmp_path):
    def peak(trials):
        cfg = parse_config(_clifford_text("lorentz", "minkowski", 1e-3, trials, det_samples=10),
                           "clifford")
        run(cfg, tmp_path)  # one-time allocations are not counted
        tracemalloc.start()
        try:
            run(cfg, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # measured: 0.13 MB at one trial, 3.2 MB at 8 blocks, and 25 MB for one stack of 8 blocks
    assert peak(8 * TRIAL_BLOCK) <= TRIAL_BLOCK * peak(1)
