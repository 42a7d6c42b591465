"""Option values the runtime does not define are rejected up front."""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process


@pytest.mark.parametrize(
    "name, value", [("engine", "jit"), ("cache_evict_policy", "lru")]
)
def test_unknown_option_value_rejected(loop_image, name, value):
    options = RuntimeOptions(code_cache_limit=700, **{name: value})
    with pytest.raises(ValueError, match="unknown %s" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold", "chain_max_fragments"])
@pytest.mark.parametrize("value", [None, 0, -1, 2.0, "20", True])
def test_chain_counts_must_be_positive_ints(loop_image, name, value):
    """Every engine reads ``chain_threshold`` (the tier-2 promotion
    threshold), so a bad value must fail at construction rather than
    mid-run or by promoting on every pass."""
    for engine in ("closure", "chain"):
        options = RuntimeOptions(engine=engine, **{name: value})
        with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
            DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold", "chain_max_fragments"])
def test_chain_counts_accept_one(loop_image, loop_native, name):
    options = RuntimeOptions(**{name: 1})
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output
