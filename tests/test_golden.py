"""Characterization test: the estimate JSONs, small study summaries and
one-system views of ``tests/golden_outputs.py`` equal the committed
``tests/golden/outputs.json``, bit for bit on the platform the file was
written on and at the stated tolerance elsewhere."""

import warnings

import golden_outputs as golden


class GoldenPlatformWarning(Warning):
    """The golden file was written on another platform, so its outputs are
    compared at a tolerance, not bit for bit."""


def test_outputs_match_the_golden_file():
    data = golden.load()
    exact = data["platform"] == golden.platform_key()
    if not exact:
        warnings.warn(f"golden file written on {data['platform']}, this is "
                      f"{golden.platform_key()}: comparing at rtol {golden.RTOL}, "
                      f"atol {golden.ATOL}", GoldenPlatformWarning)
    problems = golden.compare(golden.compute(), data["default"], exact)
    assert not problems, "\n".join(problems)


def test_compare_is_exact_on_a_platform_match_and_tolerant_elsewhere():
    want = {"case": {"x": [1.0, float("nan")], "n": 3, "label": "ok"}}
    ulp = {"case": {"x": [1.0 + 2**-52, float("nan")], "n": 3, "label": "ok"}}
    assert golden.compare(want, want, exact=True) == []
    (line,) = golden.compare(ulp, want, exact=True)
    assert line.startswith("case: worst relative deviation 2.220e-16 at /x[0]")
    assert golden.compare(ulp, want, exact=False) == []
    far = {"case": {"x": [1.0 + 1e-6, float("nan")], "n": 4, "label": "ok"}}
    assert golden.compare(far, want, exact=False) == [
        "case: worst relative deviation 3.333e-01 at /n"]
    assert golden.compare({}, want, exact=True) == ["case: missing"]
    assert golden.compare({**want, "new": {}}, want, exact=True) == [
        "new: not in the golden file"]
