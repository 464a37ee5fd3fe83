import sys
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from deltaflow import RunReport, ZSet


def run_all(cs, trace, mode):
    """Step a whole trace: the report (totals, verdict) and the list of
    (tx, {view: ZSet}, metrics) it yielded."""
    report = RunReport(cs, trace, mode)
    return report, list(report)

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcde", min_size=1, max_size=3),
)

elements = st.one_of(scalars, st.tuples(scalars, scalars))

weights = st.integers(min_value=-4, max_value=4).filter(lambda w: w != 0)


def zsets_of(element_strategy, max_size=6):
    return st.dictionaries(element_strategy, weights, max_size=max_size).map(ZSet)


zsets = zsets_of(elements)

row_elements = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
row_zsets = zsets_of(row_elements)
