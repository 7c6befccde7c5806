import json
import re
import time

import pytest

from faultkit.cutsets import build_fault_tree, export_fault_tree_dot
from faultkit.errors import ModelFormatError
from faultkit.jsonio import decode_json
from faultkit.synthesis import diagnoser_from_json, export_diagnoser_dot
from faultkit.tfpg import AND, FM, OR, Tfpg, TfpgEdge, export_tfpg_dot

QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


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


class TestDotQuoting:
    """Names are any JSON strings: each DOT exporter escapes `\\` and `"`."""

    @staticmethod
    def strings(dot: str) -> set[str]:
        # outside the quoted strings no quote or backslash is left over
        assert not {'"', "\\"} & set(QUOTED.sub("", dot))
        # `\n` in a label is DOT's line break, any other escape the character
        return {re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], s[1:-1])
                for s in QUOTED.findall(dot)}

    def test_fault_tree(self):
        ft = build_fault_tree([frozenset({'f"1', "f\\2"}), frozenset({'f"1', "g"})], 'a"b\\')
        assert {'a"b\\', "AND", 'and0_f"1', "and0_f\\2", 'f"1', "f\\2"} \
            <= self.strings(export_fault_tree_dot(ft))
        assert 'a"b\\: unreachable' in self.strings(export_fault_tree_dot(
            build_fault_tree([], 'a"b\\')))

    def test_diagnoser(self):
        def key(*values):
            return json.dumps(dict(zip(['o"b', "o\\c"], values)), sort_keys=True,
                              separators=(",", ":"))

        d = diagnoser_from_json({
            "observables": ['o"b', "o\\c"], "nodes": {'q"1': [], "r\\2": ['x"y', "z\\w"]},
            "entry": {key(False, False): 'q"1'},
            "delta": {'q"1': {key(True, False): "r\\2"}, "r\\2": {}}})
        assert {'q"1', "r\\2", 'q"1\n{-}', 'r\\2\n{x"y,z\\w}', 'o"b=0 o\\c=0',
                'o"b=1 o\\c=0'} <= self.strings(export_diagnoser_dot(d))

    def test_tfpg(self):
        g = Tfpg(['m"', "n\\"], {'fm"1': FM, "d\\x": OR, 'a"\\': AND},
                 [TfpgEdge('fm"1', "d\\x", 1, 2, ('m"', "n\\")),
                  TfpgEdge("d\\x", 'a"\\', 0, float("inf"), ('m"',))])
        assert {'fm"1', "d\\x", 'a"\\', '[1,2] m",n\\', '[0,inf] m"'} \
            <= self.strings(export_tfpg_dot(g))
