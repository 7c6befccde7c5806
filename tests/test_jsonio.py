import time

import pytest

from faultkit.errors import ModelFormatError
from faultkit.jsonio import decode_json


class TestDuplicateKeys:
    def test_names_the_key_whose_second_occurrence_comes_first(self):
        # a appears first, but b repeats first
        with pytest.raises(ModelFormatError, match="^duplicate key 'b'$"):
            decode_json('{"a": 1, "b": 2, "b": 3, "a": 4}')

    def test_late_duplicate_in_a_large_object(self):
        keys = ", ".join(f'"s{i}": {i}' for i in range(50_000))
        text = "{" + keys + ', "s0": 0}'
        start = time.perf_counter()
        with pytest.raises(ModelFormatError, match="^duplicate key 's0'$"):
            decode_json(text)
        # one pass over the keys; a scan of each key's predecessors is
        # quadratic, tens of seconds at 50,000 keys
        assert time.perf_counter() - start < 2
