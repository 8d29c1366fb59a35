"""Mutation report: which operator swaps in the library do the tests let pass?

Run with pytest and hypothesis installed:

    python tests/mutation_report.py                      # every mapped module
    python tests/mutation_report.py connect.py --sample 20 --seed 202643

For each module it lists the operator sites (``+``/``-``, ``*``/``//``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, in expressions, augmented
assignments and comparisons), draws a fixed-seed sample of them, and for each
drawn site writes a copy of the module with that one operator swapped, by
``ast``.  Each mutant runs the module's test files (``TESTS``) with ``-x`` and
``HYPOTHESIS_PROFILE=ci``.  A mutant the tests fail, or that runs past
``TIMEOUT``, is killed; one they pass survives.  The tests are derandomized,
so one seed always draws and judges the same mutants: a new seed is what
covers new sites.  The report lists the survivors
per module as Markdown, minus the mutants in ``EQUIVALENT``, which cannot
change what the library computes.

Every mutant is written into a temporary copy of ``src/`` and ``tests/``;
the repository is only read.  It is a report, not a gate: it exits 0 whatever
survives, and 1 only when the unmutated copy already fails its tests.
pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: seconds per mutant's test run, past which it counts as killed
TIMEOUT = 600.0

#: module -> test files that run for its mutants, the fastest and most
#: specific first, since ``-x`` stops at the first failure
TESTS = {
    "cholesky.py": ["test_cholesky", "test_library_digest", "test_polysys", "test_acceptance"],
    "cli.py": ["test_cli", "test_acceptance"],
    "connect.py": ["test_connect", "test_library_digest", "test_acceptance", "test_polysys",
                   "test_cli", "test_discrete"],
    "linearize.py": ["test_linearize", "test_library_digest", "test_acceptance", "test_cli"],
    "moments.py": ["test_moments", "test_integer_parts", "test_library_digest", "test_cholesky",
                   "test_polysys", "test_cli"],
    "polysys.py": ["test_polysys", "test_library_digest", "test_cholesky", "test_acceptance",
                   "test_discrete"],
    "qkernel.py": ["test_qkernel", "test_library_digest", "test_acceptance", "test_cli"],
    "recurrence.py": ["test_recurrence", "test_integer_parts", "test_library_digest",
                      "test_polysys", "test_connect", "test_linearize", "test_acceptance",
                      "test_cli", "test_discrete"],
    "scalars.py": ["test_scalars", "test_integer_parts", "test_library_digest", "test_polysys",
                   "test_moments"],
}

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Lt: "<",
           ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}

#: (module, source of the mutated node, operator, its swap) -> why the mutant
#: computes what the module computes; the operator of a chained comparison
#: carries its place in the chain, as in ("-1 < q < 1", "<#2", "<=")
EQUIVALENT = {
    ("scalars.py", "sa < sb", "<", "<="):
        "inside `if sa != sb`, so sa == sb never reaches it",
    ("scalars.py", "len(radicals) > 1", ">", ">="):
        "radicals is nonempty there, and one normalized radicand is no square",
    ("scalars.py", "c2 > 0", ">", ">="):
        "a zero other gets sign 1, not 0: a Surd is nonzero, so a negative one "
        "still differs in sign and a positive one compares its square with 0",
}


def sites(tree: ast.AST) -> list:
    """(node, index) of every swappable operator, in ``ast.walk`` order; the
    index picks the operator of a chained comparison."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
    return out


def mutate(source: str, k: int) -> tuple:
    """(mutated source, line, node source, operator, swap) of site k.  The
    operator of a chained comparison is followed by ``#`` and its place in
    the chain, counted from 1, so that ``<#1`` and ``<#2`` tell the two ends
    of ``-1 < q < 1`` apart."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    old = type(node.op if i is None else node.ops[i])
    if i is None:
        node.op = SWAPS[old]()
    else:
        node.ops[i] = SWAPS[old]()
    segment = ast.get_source_segment(source, node) or ""
    place = f"#{i + 1}" if i is not None and len(node.ops) > 1 else ""
    return (ast.unparse(tree), node.lineno, " ".join(segment.split()),
            SYMBOLS[old] + place, SYMBOLS[SWAPS[old]])


def run_tests(copy: Path, files: list) -> str:
    """"killed", "timeout" or "survived" for the package as it is in ``copy``."""
    # no bytecode cache: a mutant of the same size, written in the same
    # second as the one before, would otherwise run that one's stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), HYPOTHESIS_PROFILE="ci",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{name}.py" for name in files)]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def report(module: str, copy: Path, sample: int, seed: int) -> bool:
    """Print the Markdown report of one module; False if its unmutated
    copy, written back by ``ast.unparse``, fails its own tests."""
    path = copy / "src" / "momentpoly" / module
    source = (ROOT / "src" / "momentpoly" / module).read_text(encoding="utf-8")
    files = TESTS[module]
    path.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if run_tests(copy, files) != "survived":
        print(f"### {module}\n\nthe unmutated module fails {', '.join(files)}: no report\n",
              flush=True)
        path.write_text(source, encoding="utf-8")
        return False
    count = len(sites(ast.parse(source)))
    drawn = sorted(random.Random(seed).sample(range(count), min(sample, count)))
    tally, survivors, equivalent = {"killed": 0, "timeout": 0, "survived": 0}, [], 0
    for k in drawn:
        text, line, segment, old, new = mutate(source, k)
        path.write_text(text, encoding="utf-8")
        outcome = run_tests(copy, files)
        print(f"{module}:{line} `{segment}` {old} -> {new}: {outcome}", file=sys.stderr, flush=True)
        tally[outcome] += 1
        if outcome == "survived":
            if (module, segment, old, new) in EQUIVALENT:
                equivalent += 1
            else:
                survivors.append(f"- line {line}: `{segment}`, `{old}` -> `{new}`")
    path.write_text(source, encoding="utf-8")
    # flushed per module: a run cut short by a job limit keeps what it wrote
    print(f"### {module}\n\n{len(drawn)} of {count} sites (seed {seed}) against "
          f"{', '.join(files)}: {tally['killed']} killed, {tally['timeout']} timed out, "
          f"{tally['survived']} survived, {equivalent} of them known equivalent\n")
    print("\n".join(survivors) if survivors else "no survivor outside the known equivalents")
    print(flush=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*",
                        help=f"modules under src/momentpoly (default: all of {', '.join(TESTS)})")
    parser.add_argument("--sample", type=int, default=15, help="mutants per module (default 15)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample (default 0)")
    args = parser.parse_args(argv)
    unknown = set(args.modules) - TESTS.keys()
    if unknown:
        parser.error(f"no test map for {', '.join(sorted(unknown))}")
    ok = True
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        print("## Mutation report\n", flush=True)
        for module in args.modules or TESTS:
            ok = report(module, copy, args.sample, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
