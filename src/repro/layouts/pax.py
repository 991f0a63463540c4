"""PAX block layout.

PAX (Partition Attributes Across, Ailamaki et al. 2001) keeps all records of a block inside the
block but stores them column-wise: one "minipage" per attribute.  HAIL converts every block to
PAX on the client during upload (Section 3.1) because a clustered index over one attribute then
needs to touch only that attribute's minipage, and projections read only the requested columns.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.layouts import serialization
from repro.layouts.schema import FieldType, Schema

#: Array typecodes backing the numeric fast path: 64-bit ints and doubles cover every fixed
#: numeric field type exactly (INT/FLOAT values widen losslessly into them).
_TYPED_CODES: dict[FieldType, str] = {
    FieldType.INT: "q",
    FieldType.BIGINT: "q",
    FieldType.FLOAT: "d",
    FieldType.DOUBLE: "d",
}

#: Largest integer magnitude float64 represents exactly (int/float cross-comparison bound).
_EXACT_FLOAT_INT = 2**53

#: Rows, from the top of a block, over which :meth:`PaxBlock.sample_string_share` is taken.
_STRING_SAMPLE_ROWS = 64


def gatherer(rows: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """One C-level gather of ``rows`` (in order, repeats allowed) out of any column, as a tuple.

    Build it once and apply it to every column: ``operator.itemgetter`` indexes a tuple as fast
    as a list, where mapping the column's bound indexing method over ``rows`` is about twice
    as slow on a tuple as on a list (``docs/performance.md``).  ``itemgetter`` returns a bare
    value for one index and cannot be built from none, so those two lengths get their own
    closures.
    """
    if len(rows) > 1:
        return itemgetter(*rows)
    if rows:
        (row,) = rows
        return lambda column: (column[row],)
    return lambda column: ()


class PaxBlock:
    """A block of records stored column-wise.

    The functional representation keeps each column as a tuple; byte sizes are computed from
    the schema so the cost model can charge realistic I/O volumes without materialising
    hundreds of megabytes.  Numeric columns additionally expose a lazily built typed
    ``array`` view (:meth:`typed_column_at`) whose buffer the kernel fast path wraps with
    ``memoryview``/``numpy.frombuffer`` at zero copy cost.

    Blocks are immutable after construction (reorders build new blocks), which is what makes
    the typed-column cache, the zone-map synopses derived from a block and the carried column
    sizes and block-level zone ranges safe to reuse.  Columns are tuples because a stored
    block is the bulk of the process's live objects: a tuple of plain values leaves the
    cyclic garbage collector's working set after the first collection that visits it, a list
    never does.  A tuple handed in is adopted as is (nothing can mutate it); any other
    sequence is copied into one.

    **Size accounting.**  A block measures each column at most once per *row set*: the first
    :meth:`column_size_bytes` request (or the :meth:`variable_offsets` walk, which ends on the
    column's size anyway) fills one per-column table, and :meth:`reorder` hands the same table
    to the block it returns — a permutation changes no value, so every differently-sorted
    replica of one block shares one measurement.  The table is only ever filled from the
    block's own values or inherited from a block with the same rows; no constructor accepts
    sizes from a caller.  Sizes are exact Python ``int`` sums, so every cost formula reading
    them is unchanged.
    """

    def __init__(self, schema: Schema, columns: Sequence[Sequence[Any]], num_rows: int) -> None:
        if len(columns) != len(schema.fields):
            raise ValueError(
                f"expected {len(schema.fields)} columns for schema {schema.name!r}, got {len(columns)}"
            )
        for field, column in zip(schema.fields, columns):
            if len(column) != num_rows:
                raise ValueError(
                    f"column {field.name!r} has {len(column)} values but the block has {num_rows} rows"
                )
        self.schema = schema
        # ``tuple()`` of an exact tuple returns that tuple: pivoted, decoded and gathered
        # columns are adopted without a copy.
        self.columns: tuple[tuple, ...] = tuple(map(tuple, columns))
        self.num_rows = num_rows
        # Lazily built per-column typed views; a cached None marks a column that has no exact
        # typed representation (non-numeric type, or a BIGINT value outside int64).
        self._typed_columns: dict[int, Optional[array]] = {}
        self._int_fits_float: dict[int, bool] = {}
        # Byte size per column (None = not measured yet); the same list object is shared
        # with every reorder of this block, whichever of them measures a column first.
        self._column_sizes: list[Optional[int]] = [None] * len(self.columns)
        # Block-level ``(name, min, max)`` per column, filled and shared the same way by
        # ``zonemap.block_zone_ranges`` (which never stores an order-dependent float column).
        self._zone_triples: list[Optional[tuple]] = [None] * len(self.columns)

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_records(cls, schema: Schema, records: Sequence[Sequence[Any]]) -> "PaxBlock":
        """Pivot row-wise records into a PAX block."""
        num_fields = len(schema.fields)
        for record in records:
            if len(record) != num_fields:
                raise ValueError(
                    f"record arity {len(record)} does not match schema {schema.name!r}"
                )
        columns = list(zip(*records)) or [()] * num_fields
        return cls(schema, columns, len(records))

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> tuple:
        """The full column (minipage) for attribute ``name``."""
        return self.columns[self.schema.index_of(name)]

    def record(self, row: int) -> tuple:
        """Reconstruct one full record (all attributes) from the columns."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range 0..{self.num_rows - 1}")
        return tuple(column[row] for column in self.columns)

    def records(self, rows: Iterable[int] | None = None) -> list[tuple]:
        """Reconstruct several records; all of them when ``rows`` is ``None``."""
        if rows is None:
            rows = range(self.num_rows)
        return [self.record(row) for row in rows]

    def project(self, rows: Iterable[int], attribute_indexes: Sequence[int]) -> list[tuple]:
        """Reconstruct only the projected attributes (0-based indexes) of the given rows.

        One C-level gather per column (:func:`gatherer`), ``zip``-ped into row tuples — no
        generator per row.
        """
        if not isinstance(rows, Sequence):
            rows = list(rows)
        if not attribute_indexes:
            return [()] * len(rows)
        gather = gatherer(rows)
        return list(zip(*[gather(self.columns[i]) for i in attribute_indexes]))

    def reorder(self, permutation: Sequence[int]) -> "PaxBlock":
        """Return a new block whose rows follow ``permutation`` (the HAIL sort step)."""
        if len(permutation) != self.num_rows:
            raise ValueError("permutation length must equal the number of rows")
        gather = gatherer(permutation)
        block = PaxBlock(self.schema, list(map(gather, self.columns)), self.num_rows)
        block._column_sizes = self._column_sizes  # same values per column, same sizes
        block._zone_triples = self._zone_triples  # ... and the same min/max
        return block

    # ------------------------------------------------------------------ typed column views
    def typed_column_at(self, index: int) -> Optional[array]:
        """A typed ``array`` view of one column, or ``None`` if no exact view exists.

        Numeric columns (INT/BIGINT → ``array('q')``, FLOAT/DOUBLE → ``array('d')``) get a
        packed 64-bit representation whose buffer kernels can wrap zero-copy with
        ``memoryview``/``numpy.frombuffer``.  DATE and STRING columns — and integer columns
        holding a value outside int64 — have no exact packed form and return ``None``, which
        tells the kernel dispatcher to stay on the reference backend.  Views are built once
        per column and cached (blocks are immutable after construction).
        """
        try:
            return self._typed_columns[index]
        except KeyError:
            pass
        typecode = _TYPED_CODES.get(self.schema.fields[index].ftype)
        typed: Optional[array] = None
        if typecode is not None:
            try:
                typed = array(typecode, self.columns[index])
            except (OverflowError, TypeError, ValueError):
                typed = None
        self._typed_columns[index] = typed
        return typed

    def int_column_fits_float(self, index: int) -> bool:
        """True when every value of an integer column is exactly representable as float64.

        Kernels comparing an int64 column against a float operand promote the column to
        float64; the promotion is only exact below 2**53, so this bound gates that path.
        """
        try:
            return self._int_fits_float[index]
        except KeyError:
            pass
        typed = self.typed_column_at(index)
        if typed is None or typed.typecode != "q" or len(typed) == 0:
            fits = typed is not None and typed.typecode == "q"
        else:
            fits = -_EXACT_FLOAT_INT <= min(typed) and max(typed) <= _EXACT_FLOAT_INT
        self._int_fits_float[index] = fits
        return fits

    # ------------------------------------------------------------------ size accounting
    def _column_size_at(self, index: int) -> int:
        """The carried size of one column, measuring it on first request."""
        size = self._column_sizes[index]
        if size is None:
            field = self.schema.fields[index]
            fixed = field.ftype.fixed_size
            if fixed is not None:
                size = fixed * self.num_rows
            else:
                _, size = serialization.variable_offsets_and_size(
                    field, self.columns[index], self.num_rows or 1
                )
            self._column_sizes[index] = size
        return size

    def column_size_bytes(self, name: str) -> int:
        """Binary size of one column's minipage (measured once, then carried).

        Census keep list (``tests/test_census.py``): ``bench/trace.py`` traces it.
        """
        return self._column_size_at(self.schema.index_of(name))

    def size_bytes(self) -> int:
        """Binary size of all minipages (the PAX payload of the block)."""
        return sum(map(self._column_size_at, range(len(self.columns))))

    def projected_size_bytes(self, attribute_names: Sequence[str]) -> int:
        """Binary size of just the named columns (what a projection must read).

        Census keep list (``tests/test_census.py``): ``bench/trace.py`` traces it.
        """
        return self.indexed_size_bytes(map(self.schema.index_of, attribute_names))

    def indexed_size_bytes(self, indexes: Iterable[int]) -> int:
        """Binary size of the columns at ``indexes`` (0-based), from their carried sizes."""
        return sum(map(self._column_size_at, indexes))

    def _token_bytes(self, index: int, rows: int, sample: int) -> tuple[int, int]:
        """UTF-8 bytes of one column's first ``rows`` text tokens, and of the first ``sample``
        of them: one format pass over the column, one join per count, and no encode when the
        text is ASCII (one character, one byte)."""
        column = self.columns[index]
        if rows < len(column):
            column = column[:rows]
        tokens = list(map(self.schema.fields[index].ftype.format_value, column))
        text = "".join(tokens)
        head = text if sample >= rows else "".join(tokens[:sample])
        if text.isascii():
            return len(text), len(head)
        return len(text.encode("utf-8")), len(head.encode("utf-8"))

    def _text_measures(self, rows: int) -> tuple[int, float]:
        """Text bytes of the first ``rows`` rows and the string share of the first 64 of them,
        from one :meth:`_token_bytes` pass per column."""
        schema = self.schema
        sample = min(_STRING_SAMPLE_ROWS, rows)
        token_bytes = string_bytes = sample_bytes = 0
        for index, field in enumerate(schema.fields):
            column_bytes, in_sample = self._token_bytes(index, rows, sample)
            token_bytes += column_bytes
            # As the reference counts them: every sampled token plus its one separator byte.
            in_sample += sample
            sample_bytes += in_sample
            if not field.ftype.is_fixed:
                string_bytes += in_sample
        row_overhead = (len(schema.fields) - 1) * len(schema.delimiter.encode("utf-8")) + 1
        share = string_bytes / sample_bytes if sample_bytes else 0.0
        return token_bytes + rows * row_overhead, share

    def text_size_and_string_share(self) -> tuple[int, float]:
        """``(text_size_bytes(), sample_string_share())``, formatting each column once: what
        an upload's client charges for a block."""
        return self._text_measures(self.num_rows)

    def text_size_bytes(self) -> int:
        """Text bytes of all rows: ``sum(map(schema.text_size, records))``, by the column."""
        return self.text_size_and_string_share()[0]

    def sample_string_share(self) -> float:
        """String share of the first 64 rows' text, for the cost model's parsing split.

        ``schema.string_byte_fraction(records[:64])`` by the column — the same two integers,
        hence the same float — formatting only those 64 values per column.  The sample is
        positional, so an upload takes it from the client's block before any sort.
        """
        return self._text_measures(min(_STRING_SAMPLE_ROWS, self.num_rows))[1]

    def variable_offsets(self, name: str, partition_size: int) -> list[int]:
        """Byte offset of every ``partition_size``-th value of a variable-size column.

        The offsets depend on the row order, so every ``HailBlock`` that reads them walks its
        own; the walk ends on the column's byte size, which is recorded so nothing measures it
        again.

        Census keep list (``tests/test_census.py``): paper Section 3.5; tests hold the size
        accounting to it.
        """
        index = self.schema.index_of(name)
        offsets, self._column_sizes[index] = serialization.variable_offsets_and_size(
            self.schema.fields[index], self.columns[index], partition_size
        )
        return offsets

    # ------------------------------------------------------------------ serialization
    def to_bytes(self) -> bytes:
        """Serialize all minipages (column after column) to bytes, one codec call per column.

        This is the block's wire and journal form: upload and adaptive commits checksum it,
        the persistence journal stores it, restore decodes and re-checksums it.  Nothing is
        cached — a block holds its columns, never a second copy of them as bytes.
        """
        return b"".join(map(serialization.encode_column, self.schema.fields, self.columns))

    @classmethod
    def from_bytes(cls, schema: Schema, payload: bytes, num_rows: int) -> "PaxBlock":
        """Deserialize a block written by :meth:`to_bytes` (raises on a payload too short)."""
        columns: list[tuple] = []
        offset = 0
        for field in schema.fields:
            column, offset = serialization.decode_column_at(field, payload, num_rows, offset)
            columns.append(column)
        return cls(schema, columns, num_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaxBlock(schema={self.schema.name!r}, rows={self.num_rows})"
