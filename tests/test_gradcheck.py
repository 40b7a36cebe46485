"""Every row of the gradient-check table against finite differences.

The network row is left to acceptance criterion 1, which runs the whole
table; it alone takes most of the table's time.
"""

import pytest

from cacseg.gradcheck import CHECKS, check


@pytest.mark.parametrize("name", [n for n in CHECKS if n != "network_end_to_end"])
def test_check_matches_finite_differences(name):
    res = check(name, seed=0)
    assert res.passed, res.row()
