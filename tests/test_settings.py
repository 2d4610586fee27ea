"""Every field of every settings class has a rule.

A value of the wrong kind in any field raises a ``ValueError`` that names the
field, when the object is built.  A field added later without a rule, or of a
kind this file does not know, fails here.
"""

import dataclasses
import math
import re

import pytest

from coupled_completion.bounds import BoundParams
from coupled_completion.datagen import MaskSpec, SyntheticSpec
from coupled_completion.harness import ExperimentConfig, LambdaGrid
from coupled_completion.solver import SolverOptions

# a valid instance of each settings class
VALID = (
    SolverOptions(),
    LambdaGrid(),
    SyntheticSpec(),
    MaskSpec(),
    BoundParams(dims=(4, 4, 4), matrix_cols=3, ranks=(2, 2, 2), coupled_rank=2),
    ExperimentConfig(norms=("1:(O,O,O)",), synthetic=SyntheticSpec()),
)
# the nested settings objects and the tuples of norms and fractions, which
# their own tests cover
SKIPPED = {"synthetic", "lambda_grid", "solver", "norms", "train_fractions"}
# wrong values for each kind of field, by its annotation
WRONG = {
    "int": (True, "1"),
    "tuple[int, int, int]": (True, "1"),
    "float": (True, "1", math.nan),
    "bool": ("false",),
    "str": (7,),
    "str | None": (7,),
}


def settings_fields():
    for valid in VALID:
        for f in dataclasses.fields(valid):
            if f.name not in SKIPPED:
                yield valid, f


def test_every_field_is_of_a_known_kind():
    unknown = [f"{type(v).__name__}.{f.name}: {f.type}" for v, f in settings_fields() if f.type not in WRONG]
    assert not unknown


@pytest.mark.parametrize(
    "valid, name, value",
    [(v, f.name, bad) for v, f in settings_fields() for bad in WRONG.get(f.type, ())],
    ids=lambda x: type(x).__name__ if dataclasses.is_dataclass(x) else repr(x),
)
def test_a_value_of_the_wrong_kind_is_rejected_naming_the_field(valid, name, value):
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        dataclasses.replace(valid, **{name: value})
