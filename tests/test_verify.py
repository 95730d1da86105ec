"""The gradcheck runner itself: selectors, reports, and the negative control."""

import pytest

from mmtl.errors import ArgumentError
from mmtl.verify import MODULE_SELECTORS, gradcheck_run


def _failures(report):
    return [name for name, err in report.errors.items() if err >= report.tolerance]


class TestGradcheckRun:
    def test_all_modules_pass_on_three_seeds(self):
        for seed in (0, 1, 2):
            for report in gradcheck_run("all", tolerance=1e-4, seed=seed,
                                        max_elements=4):
                assert report.passed, f"{report.module}: {_failures(report)}"

    def test_unknown_selector_rejected(self):
        with pytest.raises(ArgumentError, match="unknown module"):
            gradcheck_run("not-a-module")

    def test_corrupted_gradient_reported_by_name(self):
        [report] = gradcheck_run("heads", seed=0, corrupt="feat")
        assert not report.passed
        assert _failures(report) == ["feat"]
        assert "FAIL" in report.lines()

    def test_tensor_core_corrupted_gradient_fails(self):
        [report] = gradcheck_run("tensor-core", seed=0, corrupt="x")
        assert not report.passed
        assert "matmul.x" in _failures(report)
        assert all(name.endswith(".x") for name in _failures(report))

    def test_report_lines_name_every_tensor(self):
        [report] = gradcheck_run("ssm", seed=1)
        rows = report.lines().splitlines()[1:]
        assert sorted(row.split()[1] for row in rows) == ["A", "B", "C", "D", "x"]

    def test_selector_list_is_stable(self):
        assert MODULE_SELECTORS == ("tensor-core", "ssm", "stem", "block",
                                    "joints", "fusion", "heads")
