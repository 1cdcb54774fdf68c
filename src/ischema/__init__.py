"""Image schemas as executable spatio-temporal logic theories.

Parametric 2D objects, polynomial spatial relations over exact rationals, a
finite-trace temporal language, a non-monotonic simulator, and a standard
library of conceptual primitives and image-schema theories, with
classification, analogy matching, and bounded model enumeration on top.
"""

from .errors import IschemaError
from .model import (
    EntityDecl,
    ForceFluent,
    Scenario,
    ShapeKind,
    Sort,
    SortHierarchy,
    State,
    Theory,
    Trace,
    declare_scenario,
    make_entity,
    subsort_of,
    translate_scenario,
)
from .geometry import (
    EvalContext,
    angular_position,
    distance,
    eval_num_expr,
    eval_relation,
    measure,
)
from .logic import CheckReport, Compare, Formula, check_theory, eval_formula, reference_eval
from .dynamics import Rule, gravity_rule, simulate, step, umph_rule
from .dsl import (
    Diagnostic,
    DslError,
    SourceSpan,
    parse_scenario,
    parse_theory,
    parse_trace_json,
    serialize_scenario,
    serialize_theory,
    serialize_trace,
    sort_check,
)
from .library import (
    SchemaBinding,
    analogy,
    classify,
    primitive_catalog,
    schema_theory,
    shipped_scenario,
)
from .enumeration import GridSpec, count_models, enumerate_models

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Compare",
    "Diagnostic",
    "DslError",
    "EntityDecl",
    "EvalContext",
    "ForceFluent",
    "Formula",
    "GridSpec",
    "IschemaError",
    "Rule",
    "Scenario",
    "SchemaBinding",
    "ShapeKind",
    "Sort",
    "SortHierarchy",
    "SourceSpan",
    "State",
    "Theory",
    "Trace",
    "analogy",
    "angular_position",
    "check_theory",
    "classify",
    "count_models",
    "declare_scenario",
    "distance",
    "enumerate_models",
    "eval_formula",
    "eval_num_expr",
    "eval_relation",
    "gravity_rule",
    "make_entity",
    "measure",
    "parse_scenario",
    "parse_theory",
    "parse_trace_json",
    "primitive_catalog",
    "reference_eval",
    "schema_theory",
    "serialize_scenario",
    "serialize_theory",
    "serialize_trace",
    "shipped_scenario",
    "simulate",
    "sort_check",
    "step",
    "subsort_of",
    "translate_scenario",
    "umph_rule",
]
