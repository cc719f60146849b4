"""Qunit definitions and instances (Sec. 2 of the paper).

A definition is *base expression* (SQL with ``$params``) + *conversion
expression* (presentation template) + metadata.  Instances are derived by
binding the parameters; the definition enumerates its bindings either from
the distinct values of a declared binder column or from an explicit
enumerator query.  Nothing is materialized until asked — "there is no
requirement that qunits be materialized" (Sec. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.answer import Answer, Atom, atom
from repro.core.presentation import ConversionTemplate, render_default
from repro.errors import DerivationError, QueryError
from repro.ir.documents import Document
from repro.relational.algebra import execute
from repro.relational.sql import parse_select, split_return_clause
from repro.utils.text import normalize, to_identifier

__all__ = ["ParamBinder", "QunitDefinition", "QunitInstance"]


@dataclass(frozen=True)
class ParamBinder:
    """Declares where a parameter's instance values come from.

    ``param`` is bound to each distinct non-null value of ``table.column``.
    """

    param: str
    table: str
    column: str

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class QunitDefinition:
    """An immutable qunit definition.

    Attributes
    ----------
    name:
        Unique identifier (snake_case).
    base_sql:
        The base expression: a SELECT with ``$param`` placeholders.
    binders:
        How each parameter enumerates its instances.  Parameter-free
        definitions (e.g. "top charts") have no binders and exactly one
        instance.
    conversion:
        Optional conversion-expression source (XSL-like markup).  When
        absent, instances render with :func:`render_default`.
    keywords:
        Extra vocabulary describing the definition's intent ("cast credits
        actors"); indexed with every instance and matched against queries.
    description:
        Human documentation.
    utility:
        Prior utility of the definition (Sec. 2's qunit utility); derivation
        strategies set this, search uses it to break ties.
    source:
        Which derivation produced it ("expert", "schema_data", "query_log",
        "external", ...).
    """

    name: str
    base_sql: str
    binders: tuple[ParamBinder, ...] = ()
    conversion: str | None = None
    keywords: tuple[str, ...] = ()
    description: str = ""
    utility: float = 1.0
    source: str = "manual"
    enumerator_sql: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DerivationError("qunit definition needs a name")
        statement = parse_select(self.base_sql)
        params = set()
        if statement.where is not None:
            params = statement.where.param_names()
        declared = {binder.param for binder in self.binders}
        if params != declared:
            raise DerivationError(
                f"qunit {self.name!r}: base expression parameters {sorted(params)} "
                f"do not match declared binders {sorted(declared)}"
            )
        # The schema footprint is immutable with the definition; caching
        # it here keeps :meth:`tables` from re-parsing the base SQL on
        # every matcher scoring call (the serving path scores every
        # definition against every query).
        object.__setattr__(self, "_footprint",
                           tuple(dict.fromkeys(
                               statement.referenced_tables())))

    # -- structure ------------------------------------------------------------

    @staticmethod
    def from_combined_sql(name: str, combined: str,
                          binders: tuple[ParamBinder, ...] = (),
                          **kwargs: object) -> "QunitDefinition":
        """Build from the paper's ``SELECT ... RETURN <template>`` syntax."""
        base_sql, conversion = split_return_clause(combined)
        return QunitDefinition(name=name, base_sql=base_sql,
                               binders=binders, conversion=conversion,
                               **kwargs)  # type: ignore[arg-type]

    def tables(self) -> list[str]:
        """Tables referenced by the base expression (schema footprint,
        parsed once at construction)."""
        return list(self._footprint)

    def schema_terms(self) -> set[str]:
        """Vocabulary induced by the footprint: table names, keywords."""
        terms: set[str] = set()
        for table in self.tables():
            terms.add(normalize(table))
        for keyword in self.keywords:
            terms.update(normalize(keyword).split())
        return terms

    def with_utility(self, utility: float) -> "QunitDefinition":
        return replace(self, utility=utility)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form of the definition (see :meth:`from_dict`).

        Persisting definitions is what lets a derived collection skip
        re-derivation entirely on the next process start (see
        :meth:`repro.core.store.CollectionStore.save`).
        """
        return {
            "name": self.name,
            "base_sql": self.base_sql,
            "binders": [[binder.param, binder.table, binder.column]
                        for binder in self.binders],
            "conversion": self.conversion,
            "keywords": list(self.keywords),
            "description": self.description,
            "utility": self.utility,
            "source": self.source,
            "enumerator_sql": self.enumerator_sql,
        }

    @staticmethod
    def from_dict(data: dict) -> "QunitDefinition":
        """Rebuild a definition serialized by :meth:`to_dict` (validates the
        base expression exactly like direct construction)."""
        return QunitDefinition(
            name=data["name"],
            base_sql=data["base_sql"],
            binders=tuple(ParamBinder(param, table, column)
                          for param, table, column in data["binders"]),
            conversion=data.get("conversion"),
            keywords=tuple(data.get("keywords", ())),
            description=data.get("description", ""),
            utility=data.get("utility", 1.0),
            source=data.get("source", "manual"),
            enumerator_sql=data.get("enumerator_sql"),
        )

    # -- instances --------------------------------------------------------------

    def bindings(self, database, limit: int | None = None) -> list[dict[str, object]]:
        """Enumerate parameter bindings (deterministic order)."""
        if self.enumerator_sql is not None:
            return self._enumerate_with_sql(database, limit)
        if not self.binders:
            return [{}]
        if len(self.binders) > 1:
            raise DerivationError(
                f"qunit {self.name!r}: multiple binders need an enumerator_sql"
            )
        binder = self.binders[0]
        table = database.table(binder.table)
        seen: set[str] = set()
        values: list[object] = []
        for value in table.column_values(binder.column):
            if value is None:
                continue
            key = normalize(str(value))
            if key in seen:
                continue
            seen.add(key)
            values.append(value)
            if limit is not None and len(values) >= limit:
                break
        return [{binder.param: value} for value in values]

    def _enumerate_with_sql(self, database, limit: int | None) -> list[dict[str, object]]:
        plan = database.prepare(self.enumerator_sql)
        bindings: list[dict[str, object]] = []
        seen: set[tuple[object, ...]] = set()
        for row in execute(plan, database):
            binding: dict[str, object] = {}
            for binder in self.binders:
                for qualified, value in row.items():
                    output_name = qualified.partition(".")[2] or qualified
                    if output_name == binder.param or qualified == binder.param:
                        binding[binder.param] = value
            if len(binding) != len(self.binders):
                raise QueryError(
                    f"qunit {self.name!r}: enumerator row {sorted(row)} does not "
                    f"bind all parameters {[b.param for b in self.binders]}"
                )
            fingerprint = tuple(
                normalize(str(binding[b.param])) for b in self.binders
            )
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            bindings.append(binding)
            if limit is not None and len(bindings) >= limit:
                break
        return bindings

    def materialize(self, database, params: dict[str, object]) -> "QunitInstance":
        """Evaluate the base expression under ``params`` into an instance."""
        missing = {binder.param for binder in self.binders} - set(params)
        if missing:
            raise QueryError(
                f"qunit {self.name!r}: unbound parameters {sorted(missing)}"
            )
        plan = database.prepare(self.base_sql)
        rows = list(execute(plan, database, params))
        return QunitInstance(definition=self, params=dict(params), rows=rows)

    def instances(self, database, limit: int | None = None) -> list["QunitInstance"]:
        """Materialize every instance (bounded by ``limit`` bindings)."""
        return [self.materialize(database, binding)
                for binding in self.bindings(database, limit)]


class QunitInstance:
    """One qunit instance: a definition applied to one parameter binding."""

    def __init__(self, definition: QunitDefinition, params: dict[str, object],
                 rows: list[dict[str, object]]):
        self.definition = definition
        self.params = params
        self.rows = rows
        self._text: str | None = None
        self._atoms: frozenset[Atom] | None = None

    # -- identity ---------------------------------------------------------------

    @property
    def instance_id(self) -> str:
        suffix = "/".join(
            to_identifier(str(self.params[binder.param]))
            for binder in self.definition.binders
        )
        return f"{self.definition.name}::{suffix}" if suffix else self.definition.name

    @property
    def title(self) -> str:
        label = self.definition.name.replace("_", " ")
        values = " ".join(str(value) for value in self.params.values())
        return f"{label} {values}".strip()

    @property
    def is_empty(self) -> bool:
        return not self.rows

    # -- content -----------------------------------------------------------------

    def text(self) -> str:
        """Rendered presentation text (cached)."""
        if self._text is None:
            if self.definition.conversion:
                template = ConversionTemplate(self.definition.conversion)
                self._text = template.render_text(self.params, self.rows)
            else:
                self._text = render_default(self.title, self.params, self.rows)
        return self._text

    def markup(self) -> str:
        """Full marked-up rendering (conversion expression applied)."""
        if self.definition.conversion:
            template = ConversionTemplate(self.definition.conversion)
            return template.render(self.params, self.rows)
        return self.text()

    def atoms(self) -> frozenset[Atom]:
        """Content atoms of the instance (id-like columns excluded)."""
        if self._atoms is None:
            collected: set[Atom] = set()
            for row in self.rows:
                for qualified, value in row.items():
                    if value is None:
                        continue
                    table, _, column = qualified.partition(".")
                    if column == "id" or column.endswith("_id"):
                        continue
                    collected.add(atom(table, column, value))
            self._atoms = frozenset(collected)
        return self._atoms

    # -- adapters -----------------------------------------------------------------

    def as_document(self) -> Document:
        """IR document view: title field boosted over the rendered body."""
        return Document.create(
            doc_id=self.instance_id,
            fields={"title": self.title, "body": self.text()},
            field_weights={"title": 3.0, "body": 1.0},
            metadata={
                "definition": self.definition.name,
                "params": tuple(sorted(
                    (key, str(value)) for key, value in self.params.items()
                )),
                "source": self.definition.source,
            },
        )

    def to_answer(self, score: float = 0.0, system: str = "qunits") -> Answer:
        return Answer(
            system=system,
            atoms=self.atoms(),
            text=self.text(),
            score=score,
            provenance=(
                ("definition", self.definition.name),
                ("params", tuple(sorted(
                    (key, str(value)) for key, value in self.params.items()
                ))),
                ("rows", len(self.rows)),
            ),
        )

    def __repr__(self) -> str:
        return f"QunitInstance({self.instance_id!r}, rows={len(self.rows)})"
