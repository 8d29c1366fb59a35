"""The CLI's earlier scalar -> text pass, kept as an oracle.

``cli._encode`` picks each case by one lookup on ``type(obj)``.  This is
the ``isinstance`` ladder it replaced, with the ``format_scalar`` ladder of
that time, so the tests can require the same output, or the same exception
type and message, for any payload, subclasses of the built-in types
included.
"""

import math
from fractions import Fraction

from momentpoly.scalars import Surd


def format_scalar_by_ladder(x):
    if isinstance(x, float):
        return x
    if isinstance(x, (int, Fraction, Surd)):
        return str(x)
    raise TypeError(f"cannot serialize scalar of type {type(x)!r}")


def encode_by_ladder(obj):
    if isinstance(obj, float) and math.isinf(obj):
        raise ValueError(f"cannot write {obj}: an output float is past the float range")
    if isinstance(obj, float) or isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, dict):
        once = {id(v): v for v in obj.values()}
        text = {i: encode_by_ladder(v) for i, v in once.items()}
        return {k: text[id(v)] for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_by_ladder(v) for v in obj]
    return format_scalar_by_ladder(obj)
