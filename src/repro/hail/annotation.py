"""The ``@HailQuery`` annotation.

Bob enables index use by annotating his map function with the selection predicate and the
projected attributes (Section 4.1)::

    @hail_query(filter="@3 between(1999-01-01, 2000-01-01)", projection=["@1"])
    def map(key, record):
        return [(record.get(1), None)]

Alternatively the same information can be put into the job configuration
(``jobconf.properties["hail.query"]``); :func:`resolve_annotation` looks in both places, exactly
as the paper allows ("Alternatively, HAIL allows Bob to specify the selection predicate and the
projected attributes in the job configuration class").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.hail.predicate import Predicate, parse_predicate
from repro.layouts.schema import Schema

#: Key under which an annotation may be stored in ``JobConf.properties``.
JOB_PROPERTY = "hail.query"
#: Attribute name under which the decorator stores the annotation on a map function.
_FUNCTION_ATTRIBUTE = "_hail_query_annotation"

AttributeRef = Union[str, int]


@dataclass(frozen=True)
class HailQuery:
    """A parsed-or-parseable ``@HailQuery`` annotation.

    ``filter`` may be a :class:`~repro.hail.predicate.Predicate` or the annotation string form;
    ``projection`` lists attribute references (names, 1-based positions, or ``"@k"`` strings).
    ``None`` for either field means "not specified" (no filtering / project all attributes).
    """

    filter: Optional[Union[Predicate, str]] = None
    projection: Optional[tuple] = None

    def bound_filter(self, schema: Schema) -> Optional[Predicate]:
        """The filter as a typed predicate bound to ``schema`` (or ``None``)."""
        if self.filter is None:
            return None
        if isinstance(self.filter, Predicate):
            return self.filter
        return parse_predicate(self.filter, schema)

    def projection_names(self, schema: Schema) -> Optional[list[str]]:
        """Projected attribute names in order (or ``None`` when all attributes are wanted)."""
        if self.projection is None:
            return None
        names: list[str] = []
        for ref in self.projection:
            names.append(_resolve_attribute_name(ref, schema))
        return names


def hail_query(
    filter: Optional[Union[Predicate, str]] = None,
    projection: Optional[Sequence[AttributeRef]] = None,
) -> Callable:
    """Decorator attaching a :class:`HailQuery` annotation to a map function.

    Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
    """

    annotation = HailQuery(
        filter=filter,
        projection=tuple(projection) if projection is not None else None,
    )

    def decorate(function: Callable) -> Callable:
        setattr(function, _FUNCTION_ATTRIBUTE, annotation)
        return function

    return decorate


def annotation_of(function: Callable) -> Optional[HailQuery]:
    """The annotation attached to a map function by :func:`hail_query`, if any."""
    return getattr(function, _FUNCTION_ATTRIBUTE, None)


def resolve_annotation(jobconf) -> Optional[HailQuery]:
    """Find the job's ``HailQuery``: map-function annotation first, then the job configuration."""
    annotation = annotation_of(jobconf.mapper)
    if annotation is not None:
        return annotation
    candidate = jobconf.properties.get(JOB_PROPERTY)
    if candidate is None:
        return None
    if isinstance(candidate, HailQuery):
        return candidate
    raise TypeError(
        f"jobconf.properties[{JOB_PROPERTY!r}] must be a HailQuery, got {type(candidate)!r}"
    )


def _resolve_attribute_name(ref: AttributeRef, schema: Schema) -> str:
    if isinstance(ref, int):
        return schema.field_at_position(ref).name
    if isinstance(ref, str) and ref.startswith("@"):
        return schema.field_at_position(int(ref[1:])).name
    return schema.field(ref).name
