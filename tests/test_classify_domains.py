"""Points where a class shape is undefined: their exclusion from a fit and
grids on which too few classes can be fitted at all."""

import pytest

from qseg.classify import CANDIDATES_BY_NAME, classify
from qseg.errors import DegenerateDesign
from qseg.interp import SampleSeries


def test_undefined_points_are_excluded_and_the_fit_ranks_last():
    # y is n log n wherever that is defined, so the nlogn fit over its
    # four points is exact, and still ranks below every fit over all five
    xs = [0, 1, 2, 4, 8]
    series = SampleSeries.from_arrays(xs, [0.0, 0.0, 2.0, 8.0, 24.0])
    report = classify(series)
    fits = {fit.name: fit for fit in report.fits}
    for name, excluded in (("log", 1), ("nlogn", 1), ("loglog", 2)):
        assert fits[name].n_used == len(xs) - excluded
        assert fits[name].note == f"excluded {excluded} points where {name} is not representable"
    assert fits["nlogn"].nrmse < 1e-12
    full = ["const", "exp", "linear", "quadratic", "sqrt"]
    assert sorted(fit.name for fit in report.fits[:len(full)]) == full
    assert all(fits[name].n_used == len(xs) and fits[name].note is None for name in full)
    assert report.fits[len(full)].name == "nlogn"
    assert report.skipped == ()


def test_fewer_than_two_fittable_candidates():
    # 2**n is past its cap at every point, so only loglog can be fitted
    series = SampleSeries.from_arrays([600, 700, 800], [1.0, 2.0, 3.0])
    candidates = [CANDIDATES_BY_NAME["exp"], CANDIDATES_BY_NAME["loglog"]]
    with pytest.raises(DegenerateDesign, match="fewer than two fittable candidates") as exc:
        classify(series, candidates)
    assert "('exp', 'exp usable on 0 of 3 points')" in str(exc.value)
