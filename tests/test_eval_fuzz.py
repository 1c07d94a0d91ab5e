"""Fuzzed `eval` inputs: whatever the JSON, `eval` exits 0, 2 or 3 and prints no traceback."""

import contextlib
import io
import json
import math
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walshcube.cli import main
from walshcube.estimators import FUNCTIONAL_NAMES

FIELDS = [
    "values", "functions", "vectors", "filtration", "kind", "n", "m", "levels", "probabilities"
]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=12,
)
# Finite values at the edge of overflow and underflow, where squares, powers
# and sums of entries leave the float range.
EDGES = st.one_of(
    st.floats(1e290, 1e308),
    st.floats(-1e308, -1e290),
    st.floats(1e-310, 1e-290),
    st.floats(-1e-290, -1e-310),
)
# Nested lists of numbers, non-finite ones included, in any (often wrong) shape.
TABLES = st.recursive(
    st.one_of(st.floats(), st.integers(-3, 3), EDGES),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=40,
)
# Declared sizes: every in-range n and a little beyond it (a declared size is
# checked against the tables before anything is built at that size), any
# larger integer, and values that are not integers at all.
SIZES = st.one_of(
    st.integers(-2, 22), st.integers(min_value=23), st.floats(), st.text(max_size=3), st.none()
)
FILTRATIONS = st.one_of(
    ANY_JSON,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["dyadic-hypercube", "tree", "other"]), "n": SIZES},
        optional={"levels": TABLES, "probabilities": TABLES},
    ),
)
PAYLOADS = st.one_of(
    ANY_JSON,
    st.fixed_dictionaries({"values": TABLES}, optional={"n": SIZES, "m": SIZES}),
    st.fixed_dictionaries({"functions": st.lists(TABLES, max_size=4)}),
    st.fixed_dictionaries({"vectors": TABLES}),
    st.fixed_dictionaries({"filtration": FILTRATIONS, "m": SIZES, "values": TABLES}),
)


# Each drawn payload goes to every functional, so each still sees 30
# examples while Hypothesis, which takes most of this file's time, draws
# 30 payloads instead of 330.
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(payload=PAYLOADS)
def test_malformed_input_exits_cleanly(payload, tmp_path):
    path = os.path.join(tmp_path, "input.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    for name in FUNCTIONAL_NAMES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--command", "eval", "--functional", name, "--in", path])
        assert code in (0, 2, 3), name
        assert "Traceback" not in err.getvalue(), name
        if code == 0:
            report = json.loads(out.getvalue())
            assert all(math.isfinite(report[key]) for key in ("lhs", "rhs", "ratio")), name
        if code == 2:
            message = err.getvalue()
            assert message.startswith("input error: ") and message.count("\n") == 1, name
