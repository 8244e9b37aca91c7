import json
from pathlib import Path

import pytest
import yaml

from repmech.cli import _key_lines, _load_yaml, main, parse_config, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.yaml"))


def test_clifford_summary_is_byte_identical_on_rerun(tmp_path):
    config = str(CONFIGS / "clifford.yaml")
    for out in ("first", "second"):
        assert main(["clifford", "--config", config, "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "first" / "clifford_summary.json").read_bytes()
    assert first == (tmp_path / "second" / "clifford_summary.json").read_bytes()


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


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_one_pass_parse_matches_safe_load(path):
    text = path.read_text()
    data, node = _load_yaml(text)
    assert data == yaml.safe_load(text)
    assert _key_lines(node) == _key_lines(yaml.compose(text))


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


def test_physics_error_exits_1(tmp_path, capsys):
    config = tmp_path / "simulate.yaml"
    config.write_text((CONFIGS / "simulate.yaml").read_text().replace(
        "velocity: [1.0, 0.6, 0.0, 0.0]", "velocity: [0.5, 0.6, 0.0, 0.0]"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("GaugeViolation:")


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
