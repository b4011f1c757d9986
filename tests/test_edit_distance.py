"""Edit distance goldens (FIXTURES.md F5) + property equivalences.

The spec oracle here is an independent straightforward O(mn) OSA DP (from the
published Damerau-Levenshtein recurrence) — NOT the vectorized production code.
"""

import pytest
from hypothesis import given, settings, strategies as st

from post_ocr_corrector_ray.functions.edit_distance import (
    edit_distance,
    edit_distance_banded,
    edit_distance_batch,
    normalized_edit_distance,
)


def _spec_osa(s1: str, s2: str) -> int:
    m, n = len(s1), len(s2)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if s1[i - 1] == s2[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and s1[i - 1] == s2[j - 2] and s1[i - 2] == s2[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[m][n]


GOLDENS = [
    ("xxabcdefghijklnmop", "abcdefghijklmnop", 3),  # reference edit_distance.py:134-136
    ("", "", 0),
    ("abc", "abc", 0),
    ("abc", "", 3),
    ("", "abc", 3),
    ("abc", "abd", 1),       # substitution
    ("abc", "abcd", 1),      # insert
    ("abcd", "abc", 1),      # delete
    ("ab", "ba", 1),         # adjacent transpose
    ("ca", "abc", 3),        # OSA (true DL would give 2) — pins OSA semantics
    ("kitten", "sitting", 3),
]


@pytest.mark.parametrize("s1,s2,want", GOLDENS)
def test_full_goldens(s1, s2, want):
    assert edit_distance(s1, s2) == want


@pytest.mark.parametrize("s1,s2,want", GOLDENS)
def test_banded_goldens(s1, s2, want):
    assert edit_distance_banded(s1, s2) == want


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abcč ж", max_size=18), st.text(alphabet="abcč ж", max_size=18))
def test_full_matches_spec(s1, s2):
    assert edit_distance(s1, s2) == _spec_osa(s1, s2)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc ", max_size=18), st.text(alphabet="abc ", max_size=18))
def test_banded_matches_full_in_band(s1, s2):
    # band half-width is |lendiff|+10; strings within 18 chars always in band
    assert edit_distance_banded(s1, s2) == edit_distance(s1, s2)


def test_batch_matches_full():
    cands = ["abc", "", "abdce", "xyz", "ж", "a", "abcdefgh"]
    for q in ["abcde", "", "жa", "hello"]:
        assert list(edit_distance_batch(q, cands)) == [edit_distance(q, c) for c in cands]


def test_normalized():
    # banded default; eval.py:58 call-site uses banded=False — same value in-band
    assert normalized_edit_distance("ab", "abcd") == 0.5
    assert normalized_edit_distance("ab", "abcd", banded=False) == 0.5
    with pytest.raises(ZeroDivisionError):
        normalized_edit_distance("x", "")  # reference behavior: unguarded
