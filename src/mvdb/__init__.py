"""Exact probabilistic database engine with correlation views.

Correlated tuples are declared through weighted views over probabilistic
relations.  Query evaluation is translated onto a tuple-independent database
with (possibly negative) probabilities, the constraint query is compiled
offline into an augmented-OBDD index, and queries are answered online by
intersecting their OBDD with the index.
"""

from .core import (INF, Attribute, DataError, DegenerateWeightError, Domain,
                   Fact, HardConstraintError, InconsistentConstraintsError,
                   Indb, IndexFormatError, Instance, InvalidViewError, Mvdb,
                   MvdbError, OrderMismatchError, QueryParseError, Relation,
                   Schema, SchemaError, UnrepresentableError,
                   WorldCapError, load_data, load_schema, parse_schema,
                   weight_to_probability)
from .ucq import (Atom, ConjunctiveQuery, Const, Lineage, MarkoView,
                  Predicate, Separator, Ucq, Var, answer_tuples,
                  find_separator, lineage, parse_query, parse_view,
                  root_variables, specialize_separator, substitute)
from .obdd import (NodeTable, Obdd, VariableOrder, choose_pi, con_obdd,
                   from_lineage, synthesize, tuple_order)
from .translate import (TranslationResult, answer_query, build_indb,
                        load_views, materialize_view, parse_views,
                        query_probability)
from .oracle import EnumerationEvaluator, mln_probability, translation_check
from .mvindex import (Constituent, IndexEvaluator, IntersectStats, MvIndex,
                      build_index, cc_mv_intersect, deserialize, load_index,
                      mv_intersect, rank_span, save_index, serialize)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
