"""Option values the runtime does not define are rejected up front."""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.core.options import ENGINES
from repro.loader import Process

# Options that count something and must be an int >= 1.
COUNTS = ["trace_threshold", "max_trace_bbs", "max_bb_instrs"]


@pytest.mark.parametrize(
    "name, value", [("engine", "jit"), ("cache_evict_policy", "lru")]
)
def test_unknown_option_value_rejected(loop_image, name, value):
    options = RuntimeOptions(code_cache_limit=700, **{name: value})
    with pytest.raises(ValueError, match="unknown %s" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold"])
@pytest.mark.parametrize("value", [None, 0, -1, 2.0, "20", True])
def test_chain_counts_must_be_positive_ints(loop_image, name, value):
    """Every engine reads ``chain_threshold`` (the tier-2 promotion
    threshold), so a bad value must fail at construction rather than
    mid-run or by promoting on every pass."""
    for engine in ENGINES:
        options = RuntimeOptions(engine=engine, **{name: value})
        with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
            DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold"])
def test_chain_counts_accept_one(loop_image, loop_native, name):
    options = RuntimeOptions(**{name: 1})
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output


@pytest.mark.parametrize("name", COUNTS + ["code_cache_limit"])
@pytest.mark.parametrize("value", [0, -1, -5, 2.0, "20", True])
def test_counts_must_be_positive_ints(loop_image, name, value):
    """An out-of-range count would otherwise run silently: a zero or
    negative trace threshold builds traces at once, a zero block or
    trace length still builds, a negative cache limit acts as zero."""
    options = RuntimeOptions(**{name: value})
    with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", COUNTS)
def test_counts_reject_none(loop_image, name):
    options = RuntimeOptions(**{name: None})
    with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", COUNTS + ["code_cache_limit"])
def test_counts_accept_one(loop_image, loop_native, name):
    options = RuntimeOptions(**{name: 1})
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output
