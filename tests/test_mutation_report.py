"""The mutation report's naming of its mutants."""

import ast

import pytest

from mutation_report import EQUIVALENT, ROOT, mutate, sites

CHAINED = "def inside(q):\n    return -1 < q < 1\n"


def test_chained_comparison_sites_are_told_apart():
    described = [mutate(CHAINED, k) for k in range(len(sites(ast.parse(CHAINED))))]
    assert [d[1:] for d in described] == [(2, "-1 < q < 1", "<#1", "<="),
                                          (2, "-1 < q < 1", "<#2", "<=")]
    assert [d[0].splitlines()[1].strip() for d in described] == ["return -1 <= q < 1",
                                                                 "return -1 < q <= 1"]


def test_single_comparison_keeps_its_operator():
    source = "def f(a, b):\n    return a < b and a + b != 0\n"
    described = {mutate(source, k)[2:] for k in range(len(sites(ast.parse(source))))}
    assert described == {("a < b", "<", "<="), ("a + b", "+", "-"), ("a + b != 0", "!=", "==")}


@pytest.mark.parametrize("key", sorted(EQUIVALENT))
def test_equivalent_keys_name_a_site(key):
    # each known equivalent mutant is still one the report draws and names
    module, segment, old, new = key
    source = (ROOT / "src" / "momentpoly" / module).read_text(encoding="utf-8")
    named = {mutate(source, k)[2:] for k in range(len(sites(ast.parse(source))))}
    assert (segment, old, new) in named
