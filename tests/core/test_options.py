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
