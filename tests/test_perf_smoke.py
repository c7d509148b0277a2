"""The tier-2 perf gate itself: ``perf_smoke.py --quick --json`` semantics.

ISSUE 5 acceptance: the quick check must exit non-zero on an injected
regression (a doctored baseline whose recorded timings are impossibly
fast), write the measured sections to the ``--json`` artifact either way,
and respect the CI-looser ``PERF_SMOKE_REGRESSION_FACTOR`` multiplier.
The subprocess runs shrink the micro stream via ``PERF_SMOKE_N_PACKETS``
so tier-1 stays fast; the gate logic under test is identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "perf_smoke.py"


def run_quick(tmp_path, baseline, extra_env=None, sections="micro"):
    """Run ``--quick --sections <sections> --json`` against ``baseline``."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    json_path = tmp_path / "metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PERF_SMOKE_N_PACKETS"] = "20000"
    env.update(extra_env or {})
    result = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--quick",
            "--sections",
            sections,
            "--output",
            str(baseline_path),
            "--json",
            str(json_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    return result, json_path


def test_quick_gate_fails_on_injected_regression(tmp_path):
    """An impossibly fast baseline makes every timing a >2x regression."""
    doctored = {"micro": {"construct_from_packets_s": 1e-3}}
    result, json_path = run_quick(tmp_path, doctored)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "PERF REGRESSIONS" in result.stderr
    assert "construct_from_packets_s" in result.stderr
    # the artifact is written even when the gate fails (CI uploads it)
    measured = json.loads(json_path.read_text())
    assert "micro" in measured
    assert measured["micro"]["construct_from_packets_s"] > 1e-3


def test_quick_gate_passes_and_writes_artifact(tmp_path):
    """A generous baseline passes; the artifact carries the sections."""
    generous = {"micro": {"legacy_filter_views_s": 1e9}}
    result, json_path = run_quick(tmp_path, generous)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "quick check passed" in result.stdout
    measured = json.loads(json_path.read_text())
    assert set(measured) >= {"generated_by", "n_cpus", "micro"}
    assert "feature_matrix" not in measured  # --sections filtered it out


def test_regression_factor_env_loosens_the_gate(tmp_path):
    """A borderline regression passes once the CI multiplier is raised."""
    # measure once to learn this machine's value, then craft a baseline
    # ~2.5x faster: fails at the default 2.0, passes at 30.0
    probe, json_path = run_quick(tmp_path, {})
    assert probe.returncode == 0, probe.stdout + probe.stderr
    measured = json.loads(json_path.read_text())["micro"]["construct_from_packets_s"]
    borderline = {"micro": {"construct_from_packets_s": max(measured / 2.5, 1.1e-3)}}
    strict, _ = run_quick(tmp_path, borderline)
    loose, _ = run_quick(
        tmp_path, borderline, extra_env={"PERF_SMOKE_REGRESSION_FACTOR": "30.0"}
    )
    assert loose.returncode == 0, loose.stdout + loose.stderr
    # the strict run may pass if the probe was unluckily slow; when it fails
    # it must fail through the gate, not through a crash
    assert strict.returncode in (0, 1)
    if strict.returncode == 1:
        assert "PERF REGRESSIONS" in strict.stderr


def test_quick_gate_fails_on_vanished_metric(tmp_path):
    """A recorded metric a measured section no longer emits fails the gate;
    a metric of a section this run skipped is not compared."""
    doctored = {
        "micro": {"legacy_filter_views_s": 1e9, "retired_filter_s": 1.0},
        "feature_matrix": {"retired_matrix_s": 1.0},
    }
    result, json_path = run_quick(tmp_path, doctored)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "PERF REGRESSIONS" in result.stderr
    assert "micro.retired_filter_s" in result.stderr
    assert "retired_matrix_s" not in result.stderr
    assert "legacy_filter_views_s" not in result.stderr
    assert "micro" in json.loads(json_path.read_text())


def test_unknown_section_is_rejected(tmp_path):
    result, _ = run_quick(tmp_path, {}, sections="micro,warp_drive")
    assert result.returncode == 2
    assert "warp_drive" in result.stderr


@pytest.mark.parametrize("empty", ["", ",", " , "])
def test_empty_section_selection_is_rejected(tmp_path, empty):
    """An empty selection must not silently pass the gate by measuring
    nothing."""
    result, _ = run_quick(tmp_path, {}, sections=empty)
    assert result.returncode == 2
    assert "selected nothing" in result.stderr


@pytest.mark.parametrize("key_suffix", ["_s", "_bytes", "_ratio", "_per_s"])
def test_check_against_baseline_directions(key_suffix):
    """Each metric family gates in its correct direction."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import importlib.util

        spec = importlib.util.spec_from_file_location("perf_smoke_mod", SCRIPT)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.pop(0)
    name = f"metric{key_suffix}"
    higher_is_better = key_suffix in ("_ratio", "_per_s")
    baseline = {"section": {name: 10.0}}
    worse = {"section": {name: 3.0 if higher_is_better else 30.0}}
    better = {"section": {name: 30.0 if higher_is_better else 3.0}}
    assert mod.check_against_baseline(worse, baseline, factor=2.0)
    assert not mod.check_against_baseline(better, baseline, factor=2.0)
    # the looser CI factor forgives a borderline 2.5x drift
    borderline = {"section": {name: 4.5 if higher_is_better else 25.0}}
    assert mod.check_against_baseline(borderline, baseline, factor=2.0)
    assert not mod.check_against_baseline(borderline, baseline, factor=3.0)
