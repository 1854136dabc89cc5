"""Relational schemas.

A :class:`Schema` is a collection of named relations; each
:class:`RelationSchema` has a name and an ordered list of attributes with
optional Python types used for validation on insert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


class SchemaError(ValueError):
    """Raised on schema violations (unknown relation, bad arity...)."""


@dataclass(frozen=True)
class Attribute:
    """A named attribute with an optional expected Python type."""

    name: str
    dtype: type | None = None

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` if ``value`` has the wrong type."""
        if self.dtype is not None and not isinstance(value, self.dtype):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )


@dataclass(frozen=True)
class RelationSchema:
    """A relation name together with its attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    @classmethod
    def of(cls, name: str, *attr_specs: str | tuple[str, type]) -> "RelationSchema":
        """Build a relation schema from attribute names or (name, type)
        pairs: ``RelationSchema.of("R", "a", ("b", int))``."""
        attrs = []
        for spec in attr_specs:
            if isinstance(spec, str):
                attrs.append(Attribute(spec))
            else:
                attrs.append(Attribute(spec[0], spec[1]))
        return cls(name, tuple(attrs))

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @cached_property
    def types(self) -> tuple[type, ...]:
        """Each attribute's expected type (``object`` when untyped), for
        checking a whole row with one ``isinstance`` per value."""
        return tuple(a.dtype or object for a in self.attributes)

    def validate(self, values: Sequence[object]) -> None:
        """Check arity and attribute types of a candidate tuple."""
        if len(values) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}, "
                f"got {len(values)} values"
            )
        for attribute, value in zip(self.attributes, values):
            attribute.validate(value)

    def position(self, attribute_name: str) -> int:
        """Index of an attribute by name."""
        for i, attribute in enumerate(self.attributes):
            if attribute.name == attribute_name:
                return i
        raise SchemaError(f"no attribute {attribute_name!r} in {self.name!r}")


@dataclass
class Schema:
    """A database schema: a collection of relation schemas."""

    relations: dict[str, RelationSchema] = field(default_factory=dict)

    @classmethod
    def of(cls, *relation_schemas: RelationSchema) -> "Schema":
        schema = cls()
        for rel in relation_schemas:
            schema.add(rel)
        return schema

    def add(self, relation: RelationSchema) -> None:
        if relation.name in self.relations:
            raise SchemaError(f"duplicate relation {relation.name!r}")
        self.relations[relation.name] = relation

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def names(self) -> Iterable[str]:
        return self.relations.keys()
