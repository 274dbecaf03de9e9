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
    assert line == "case: worst relative deviation 2.220e-16 at /x[0], 1 of 4 leaves moved"
    far = {"case": {"x": [1.0 + 1e-6, float("nan")], "n": 4, "label": "ok"}}
    assert golden.compare(far, want, exact=False) == [
        "case: worst relative deviation 3.333e-01 at /n, 2 of 4 leaves moved"]
    assert golden.compare({}, want, exact=True) == ["case: missing"]
    assert golden.compare({**want, "new": {}}, want, exact=True) == [
        "new: not in the golden file"]
    # A structure difference names the first leaf added and the first dropped,
    # and the leaves both sides hold are still compared.
    grown = {"case": {"x": [1.0, float("nan"), 2.0], "n": 3, "label": "ok", "kind": "iv"}}
    assert golden.compare(grown, want, exact=True) == [
        "case: structure differs: 2 leaves added (first /x[2])"]
    shrunk = {"case": {"x": [1.0 + 2**-52], "n": 3}}
    assert golden.compare(shrunk, want, exact=True) == [
        "case: structure differs: 2 leaves dropped (first /x[1]); "
        "worst relative deviation 2.220e-16 at /x[0], 1 of 2 leaves moved"]
    swapped = {"case": {"n": 3, "x": [1.0, float("nan")], "label": "ok"}}
    assert golden.compare(swapped, want, exact=True) == [
        "case: structure differs: leaves reordered"]
