"""Tests for the full report generator."""

import pytest

from repro.analysis import figures
from repro.analysis.fullreport import generate_report


@pytest.fixture(scope="module")
def report():
    return generate_report(scale=0.05, mixes=[("betw", "back")])


def test_report_contains_all_sections(report):
    for marker in [
        "Table I", "Table II", "Figure 1b", "Figure 3a", "Figure 3b",
        "Figure 4c", "Figure 5a", "Figure 5b", "Figure 5c",
        "Figure 10", "Figure 11",
    ]:
        assert marker in report


def test_report_is_nonempty_text(report):
    # This assertion used to be nested inside the previous test and never ran.
    assert len(report.splitlines()) > 30


def test_result_sections_match_generate_report(report):
    """The shared result-derived sections are exactly what the report embeds."""
    from repro.analysis.fullreport import result_sections
    from repro.configspace import get_preset
    from repro.runner import run_sweep

    result = run_sweep(get_preset("fig10").spec(
        scale=0.05, workloads=["betw-back"]))
    sections = result_sections(result)
    assert len(sections) == 2
    for section in sections:
        assert section in report


@pytest.fixture(scope="module")
def report_result():
    """The one sweep ``generate_report`` pivots: GDDR5 + the evaluation platforms."""
    from repro.configspace import get_preset
    from repro.configspace.presets import EVAL_PLATFORMS
    from repro.runner import run_sweep

    return run_sweep(get_preset("fig10").spec(
        platforms=["GDDR5", *EVAL_PLATFORMS], scale=0.05,
        workloads=["betw-back"]))


@pytest.mark.parametrize("preset, pivot", [
    ("fig10", figures.figure_10_from_result),
    ("fig11", figures.figure_11_from_result),
])
def test_shared_report_sweep_pivots_like_the_figure_preset(
        report_result, preset, pivot):
    """Pivoting the report's shared sweep onto a figure preset's platforms
    gives the numbers a run of that preset alone gives."""
    from repro.configspace import get_preset
    from repro.runner import run_sweep

    platforms = list(get_preset(preset).platforms)
    alone = run_sweep(get_preset(preset).spec(scale=0.05, workloads=["betw-back"]))
    assert pivot(report_result, platforms=platforms) == pivot(alone)


def test_result_sections_keep_gddr5_and_non_flash_platforms_out(report_result):
    """Fig 10 plots the 7 evaluation platforms, Fig 11 only the flash ones."""
    from repro.analysis.fullreport import result_sections

    fig10, fig11 = result_sections(report_result)
    header10, header11 = fig10.splitlines()[2], fig11.splitlines()[2]
    assert "GDDR5" not in header10 and "Hetero" in header10
    for absent in ("GDDR5", "Hetero", "Optane"):
        assert absent not in header11
    assert "HybridGPU" in header11 and "ZnG-base" in header11
