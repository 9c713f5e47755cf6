"""The exact counts and output digests pinned in tests/pinned/.

make_pinned.py rebuilds each file from src/ with fixed seeds; each test
recomputes one file and compares it line by line, so a moved count shows
as the rows that differ.
"""

import pytest

from make_pinned import FILES, PINNED


@pytest.mark.parametrize("name", sorted(FILES))
def test_pinned_file_unchanged(name):
    want = (PINNED / name).read_text(encoding="utf-8").splitlines()
    assert FILES[name]().splitlines() == want
