"""Shared fixtures: the family corpus and the random-family strategy used
across the property suites."""

import pytest
from hypothesis import strategies as st

from polyvis import DEGREE_CAP, parse_family

# Linear, pure square, the main quadratic, a denser quadratic, and a cubic
# with a coefficient gap. Degree and shape variety on purpose.
CORPUS_SPECS = ("1", "1,0", "1,1", "2,5", "1,0,1")
CORPUS = tuple(parse_family(s) for s in CORPUS_SPECS)


@pytest.fixture(params=CORPUS_SPECS, ids=lambda s: f"P={s}")
def family(request):
    return parse_family(request.param)


@st.composite
def families(draw):
    # Low degrees half the time: blocks larger than 1x1 are rare at high degree.
    lead = draw(st.integers(1, 3))
    rest = draw(st.lists(st.integers(0, 3), max_size=draw(st.sampled_from((2, DEGREE_CAP - 1)))))
    return parse_family(",".join(map(str, [lead, *rest])))
