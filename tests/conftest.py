"""Fixtures shared by every test module."""

import pytest

from openwdvv import saito


@pytest.fixture(autouse=True)
def no_kept_tables():
    """Each test starts with no verifier tables kept from an earlier one
    (saito._shared), so its counts do not depend on the test order."""
    saito._SLOTS.clear()
