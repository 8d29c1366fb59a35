"""One sha256 over the library's non-CLI outputs, in both modes.

The CLI golden tests and the benchmark digests pin what the command line
prints; this digest pins what the library returns to a caller.  Exact values
are recorded by type, ``repr`` and ``str``, floats by ``float.hex``, so a
change of one bit or of one printed form changes the digest.

Records come from ``build_system`` (rec, deltas, roots, L and Pi),
``associated_polys``, ``inverse_moment_matrix``, ``kernel``, ``christoffel``,
the pure-Python fields of ``diagnostics``, ``closed_form_gamma``,
``closed_form_linearization``, ``verify_linearization_closed_forms``,
``q_factorial`` and ``q_pochhammer``.  They span the four catalog families,
q-hermite (q = 1/3) and two seeded b != 0 recurrences at n in {0, 1, 5, 10},
in both modes.  The eigenvalues, ``q_sandwich_bounds`` and float ``checks`` of
``diagnostics`` are left out: they read numpy or the builtin ``sum``, whose
float result differs between Python versions.

A float-output rule (ROADMAP item 5) will change float bits on purpose; the
change that adopts it regenerates this digest, as it does
``bench/digests.json``.  Any other change must leave it as it is.
"""

import hashlib
import random
from fractions import Fraction

from conftest import CATALOG, random_recurrence

from momentpoly import (
    FamilySpec,
    associated_polys,
    build_system,
    christoffel,
    closed_form_gamma,
    closed_form_linearization,
    diagnostics,
    kernel,
    make_moments,
    moments_from_recurrence,
    q_factorial,
    q_pochhammer,
    verify_linearization_closed_forms,
)
from momentpoly.polysys import inverse_moment_matrix
from momentpoly.scalars import FLOAT, MODES, RATIONAL

ORDERS = (0, 1, 5, 10)
COUNT = 2 * max(ORDERS) + 2
DIGEST = "8e3a719af82d87798068f3759c73a591921c04f2706415c220d897b0edb35f56"
RECORDS = 12535

_DIAGNOSTIC_FIELDS = ("mu", "moment_trace", "inverse_trace", "p_zero_sum", "q_zero_sum",
                      "q_moment_quadratic", "qp_zero_sum", "qp_moment_sum")


def _measures():
    """The rational moment sequences, each with COUNT moments."""
    out = [make_moments(FamilySpec(fam, COUNT)) for fam in CATALOG]
    out.append(make_moments(FamilySpec("q-hermite", COUNT, {"q": Fraction(1, 3)})))
    for seed in (5, 11):
        rec = random_recurrence(random.Random(seed), COUNT, label=f"seed{seed}")
        out.append(moments_from_recurrence(rec, COUNT))
    return out


def _flatten(tag, value, out):
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{tag}[{i}]", v, out)
    elif isinstance(value, float):
        out.append(f"{tag} float {value.hex()}")
    else:
        out.append(f"{tag} {type(value).__name__} {value!r} {value}")


def _check_fields(check):
    return (check.name, check.passed, check.checked, check.first_mismatch, check.note)


def _system_records(m, mode, out):
    points = ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(2)))
    if mode == FLOAT:
        points = tuple((float(x), float(y)) for x, y in points)
    for n in ORDERS:
        tag = f"{m.label}/{mode}/n={n}"
        sys_ = build_system(m, n)
        rec = sys_.rec
        _flatten(f"{tag}/rec", (rec.a2, rec.b), out)
        for name in ("deltas", "roots"):
            _flatten(f"{tag}/{name}", getattr(sys_, name), out)
        _flatten(f"{tag}/L", sys_.L.rows, out)
        _flatten(f"{tag}/Pi", sys_.Pi.rows, out)
        _flatten(f"{tag}/assoc", associated_polys(sys_), out)
        _flatten(f"{tag}/inverse", inverse_moment_matrix(sys_), out)
        for x, y in points:
            _flatten(f"{tag}/kernel({x},{y})", kernel(sys_, x, y), out)
            _flatten(f"{tag}/christoffel({x})", christoffel(sys_, x), out)
        diag = diagnostics(sys_)
        for name in _DIAGNOSTIC_FIELDS:
            _flatten(f"{tag}/diagnostics.{name}", getattr(diag, name), out)
        if mode == RATIONAL:
            _flatten(f"{tag}/diagnostics.checks", sorted(diag.checks.items()), out)
            for a in range(n + 1):
                checks = verify_linearization_closed_forms(sys_, a, n - a)
                _flatten(f"{tag}/verify_lin({a},{n - a})", [_check_fields(c) for c in checks], out)


def _closed_form_records(recs, mode, out):
    for target, source in zip(recs, recs[1:] + recs[:1]):
        for n in ORDERS:
            for k in range(max(n - 2, 0), n + 1):
                tag = f"gamma/{target.label}/{source.label}/{mode}/({n},{k})"
                _flatten(tag, closed_form_gamma(target, source, n, k), out)
    for rec in recs:
        for n, m in ((0, 1), (1, 1), (2, 3), (5, 5), (3, 7), (7, 3)):
            for s in (n + m - 1, n + m - 2):
                if s >= 0:
                    value = closed_form_linearization(rec, n, m, s)
                    _flatten(f"lin/{rec.label}/{mode}/({n},{m},{s})", sorted(value.items()), out)


def _q_records(out):
    for q in (Fraction(1, 3), Fraction(-1, 2), Fraction(1), 1 / 3, -0.5):
        for n in ORDERS:
            _flatten(f"q_factorial({n},{q!r})", q_factorial(n, q), out)
            for a in (Fraction(1, 2), Fraction(-3), 0.5):
                _flatten(f"q_pochhammer({a!r},{n},{q!r})", q_pochhammer(a, n, q), out)


def library_records() -> list:
    out: list = []
    rational = _measures()
    for mode in MODES:
        ms = rational if mode == RATIONAL else [m.to_floats() for m in rational]
        for m in ms:
            _system_records(m, mode, out)
        _closed_form_records([build_system(m, max(ORDERS)).rec for m in ms], mode, out)
    _q_records(out)
    return out


def test_library_outputs_are_pinned():
    records = library_records()
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == (RECORDS, DIGEST)
