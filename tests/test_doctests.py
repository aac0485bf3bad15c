import doctest

import pytest

import skyline.correspondences
import skyline.crystal
import skyline.fillings
import skyline.kernel
import skyline.permutations
import skyline.polynomials
import skyline.shapes
import skyline.tableaux


@pytest.mark.parametrize(
    "module",
    [
        skyline.shapes,
        skyline.permutations,
        skyline.polynomials,
        skyline.tableaux,
        skyline.crystal,
        skyline.kernel,
        skyline.correspondences,
        skyline.fillings,
    ],
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_verify_criterion_runs_its_example():
    module = skyline.correspondences
    runner = doctest.DocTestRunner()
    for test in doctest.DocTestFinder().find(module.verify_criterion, globs=vars(module)):
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert (result.failed, result.attempted) == (0, 1)
