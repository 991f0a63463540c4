"""PAX block layout.

PAX (Partition Attributes Across, Ailamaki et al. 2001) keeps all records of a block inside the
block but stores them column-wise: one "minipage" per attribute.  HAIL converts every block to
PAX on the client during upload (Section 3.1) because a clustered index over one attribute then
needs to touch only that attribute's minipage, and projections read only the requested columns.

What a block's values determine is computed once per *row set* and shared by every reorder of
it: column sizes, the byte sums of the column sets queries read (keyed by index tuple) and of
all columns, the block-level zone ranges and the NaN/``None`` flags that decide whether a
column can be bisected.  A block read again by a query shape already seen measures nothing.
"""

from __future__ import annotations

from array import array
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.layouts import serialization
from repro.query.schema import FieldType, Schema

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

#: Characters (all ASCII) of ``date.isoformat()``: ``YYYY-MM-DD``, the year zero-padded.
_ISO_DATE_BYTES = 10


def _utf8_size(text: str) -> int:
    """UTF-8 bytes of ``text``, with no encode when it is ASCII."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


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


class ColumnBatch(tuple):
    """One block's qualifying rows as columns: what a scan hands its consumer.

    A ``(columns, size)`` pair: ``columns`` are the projected columns in projection order,
    each a sequence of ``size`` values; an empty projection has no column, so ``size`` alone
    counts its rows.  A consumer that reads columns (a group-by's regroup, a join's keying)
    takes them as they are; only one that wants rows zips them, once, with :meth:`rows`.
    Built as ``ColumnBatch((columns, size))``: a bare tuple underneath, so a block pays no
    Python-level constructor for it.
    """

    __slots__ = ()

    columns = property(itemgetter(0), doc="The projected columns, in projection order.")
    size = property(itemgetter(1), doc="The number of rows.")

    @classmethod
    def of_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """The batch of ``rows``, each ``width`` values wide: one transpose."""
        return cls((list(zip(*rows)) if rows else [()] * width, len(rows)))

    def rows(self) -> list[tuple]:
        """The batch as row tuples, in order (``()`` per row of an empty projection)."""
        columns = self[0]
        return list(zip(*columns)) if columns else [()] * self[1]


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
    replica of one block shares one measurement.  Sums over a set of columns
    (:meth:`indexed_size_bytes`: what a query reads, filters and projects; :meth:`size_bytes`:
    every column) are kept the same way, one per row set and index tuple, so a block read
    again by a query shape already seen adds nothing up.  The tables are only ever filled from
    the block's own values or inherited from a block with the same rows; no constructor
    accepts sizes from a caller.  Sizes are exact Python ``int`` sums, so every cost formula
    reading them is unchanged.  The client's text measure reads the carried sizes too: a
    STRING column's text is its binary form without the terminators and an exact-``date``
    column's is 10 bytes a value, so only the other columns are formatted, each by one
    formatter bound for the column.
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
        # Byte size per tuple of column indexes summed so far, shared the same way.
        self._index_sums: dict[tuple[int, ...], int] = {}
        # Block-level ``(name, min, max)`` per column, filled and shared the same way by
        # ``zonemap.block_zone_ranges`` (which never stores an order-dependent float column).
        self._zone_triples: list[Optional[tuple]] = [None] * len(self.columns)
        # Per column, the value that breaks its order ("NaN", "None" or None for none),
        # checked on first request and shared the same way (a permutation changes no value).
        self._unordered: dict[int, Optional[str]] = {}

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_records(cls, schema: Schema, records: Sequence[Sequence[Any]]) -> "PaxBlock":
        """Pivot row-wise records into a PAX block (the arities checked in one C-level pass)."""
        num_fields = len(schema.fields)
        arities = set(map(len, records))
        arities.discard(num_fields)
        if arities:
            arity = next(len(record) for record in records if len(record) != num_fields)
            raise ValueError(f"record arity {arity} does not match schema {schema.name!r}")
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

    def batch(self, rows: Iterable[int], attribute_indexes: Sequence[int]) -> "ColumnBatch":
        """The projected attributes (0-based indexes) of the given rows, as a column batch.

        A ``range`` of consecutive rows (what an index scan and an unfiltered scan hand over)
        takes column slices (a slice over a whole tuple column is that column, uncopied):
        nothing is gathered.  Any other row set takes one C-level gather per column
        (:func:`gatherer`).  No row tuple is built: :meth:`ColumnBatch.rows` does that for a
        consumer that wants rows.  The row set is told apart by its exact type (a ``range``, a
        list or a tuple are used as they are; any other iterable is listed first): an
        ``isinstance`` test against the ``Sequence`` ABC costs more than a small block's
        projection.
        """
        kind = type(rows)
        if kind is not range and kind is not list and kind is not tuple:
            rows = list(rows)
        columns = self.columns
        if kind is range and rows.step == 1:
            start, stop = rows.start, rows.stop
            return ColumnBatch(([columns[i][start:stop] for i in attribute_indexes], len(rows)))
        gather = gatherer(rows)
        return ColumnBatch(([gather(columns[i]) for i in attribute_indexes], len(rows)))

    def reorder(self, permutation: Sequence[int]) -> "PaxBlock":
        """Return a new block whose rows follow ``permutation`` (the HAIL sort step)."""
        if len(permutation) != self.num_rows:
            raise ValueError("permutation length must equal the number of rows")
        gather = gatherer(permutation)
        block = PaxBlock(self.schema, list(map(gather, self.columns)), self.num_rows)
        block._column_sizes = self._column_sizes  # same values per column, same sizes
        block._index_sums = self._index_sums  # ... and the same sums of them
        block._zone_triples = self._zone_triples  # ... and the same min/max
        block._unordered = self._unordered  # ... and the same NaN and None values
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

    # ------------------------------------------------------------------ value order
    def unordered_value(self, index: int) -> Optional[str]:
        """``"NaN"`` or ``"None"`` when column ``index`` holds a value that ``<`` does not
        order, else ``None``.

        A bisect over a sorted column finds every match only when ``<`` orders all of its
        values: a ``None`` raises against any other value, and a NaN compares false with
        everything, so ``sorted`` leaves a NaN-holding column out of order.  FLOAT/DOUBLE
        columns are checked for NaN first (the one value not equal to itself), then every
        column for ``None``.  Checked once per row set, on first request, and shared with
        every reorder.
        """
        try:
            return self._unordered[index]
        except KeyError:
            pass
        column = self.columns[index]
        found: Optional[str] = None
        if _TYPED_CODES.get(self.schema.fields[index].ftype) == "d" and not all(
            map(eq, column, column)
        ):
            found = "NaN"
        elif None in column:
            found = "None"
        self._unordered[index] = found
        return found

    # ------------------------------------------------------------------ size accounting
    def _column_size_at(self, index: int) -> int:
        """The carried size of one column, measuring it on first request."""
        size = self._column_sizes[index]
        if size is None:
            fixed = self.schema.fields[index].ftype.fixed_size
            if fixed is not None:
                size = fixed * self.num_rows
            else:
                size = serialization.variable_size(self.columns[index])
            self._column_sizes[index] = size
        return size

    def column_size_bytes(self, name: str) -> int:
        """Binary size of one column's minipage (measured once, then carried).

        Census keep list (``tests/test_census.py``): ``bench/trace.py`` traces it.
        """
        return self._column_size_at(self.schema.index_of(name))

    def size_bytes(self) -> int:
        """Binary size of all minipages (the PAX payload of the block): summed on the first
        request per row set, then looked up (:meth:`indexed_size_bytes` over every column)."""
        return self.indexed_size_bytes(tuple(range(len(self.columns))))

    def projected_size_bytes(self, attribute_names: Sequence[str]) -> int:
        """Binary size of just the named columns (what a projection must read).

        Census keep list (``tests/test_census.py``): ``bench/trace.py`` traces it.
        """
        return self.indexed_size_bytes(tuple(map(self.schema.index_of, attribute_names)))

    def indexed_size_bytes(self, indexes: tuple[int, ...]) -> int:
        """Binary size of the columns at ``indexes`` (0-based), from their carried sizes:
        summed on the first request per row set and index tuple, then looked up."""
        try:
            return self._index_sums[indexes]
        except KeyError:
            pass
        total = self._index_sums[indexes] = sum(map(self._column_size_at, indexes))
        return total

    def _token_bytes(
        self, index: int, rows: int, sample: int, column_size: Optional[int]
    ) -> tuple[int, int]:
        """UTF-8 bytes of one column's first ``rows`` text tokens, and of the first ``sample``
        of them, formatting no more than the column's type requires:

        - a STRING column's tokens are ``str(value)``, exactly the text its binary form
          zero-terminates, so over all rows (``column_size`` given: the carried binary size)
          its text bytes are that size less one terminator per row; only the sample is joined;
        - a DATE column of exact ``date`` values is 10 bytes per value (``YYYY-MM-DD``);
        - any other column is formatted once (:meth:`FieldType.format_column`), with one join
          per count and no encode when the text is ASCII (one character, one byte).
        """
        ftype = self.schema.fields[index].ftype
        column = self.columns[index]
        if rows < len(column):
            column = column[:rows]
        if ftype is FieldType.STRING and column_size is not None:
            return column_size - rows, _utf8_size("".join(ftype.format_column(column[:sample])))
        if ftype is FieldType.DATE and ftype.holds_exactly(column):
            return _ISO_DATE_BYTES * rows, _ISO_DATE_BYTES * sample
        tokens = list(ftype.format_column(column))
        text = "".join(tokens)
        head = text if sample >= rows else "".join(tokens[:sample])
        return _utf8_size(text), _utf8_size(head)

    def _text_measures(self, rows: int) -> tuple[int, float]:
        """Text bytes of the first ``rows`` rows and the string share of the first 64 of them,
        from one :meth:`_token_bytes` measure per column.  Over all rows, the carried column
        sizes (one sum per row set, :meth:`size_bytes`) give the STRING columns' text bytes."""
        schema = self.schema
        sample = min(_STRING_SAMPLE_ROWS, rows)
        whole = rows == self.num_rows
        if whole:
            self.size_bytes()  # every column's size carried (a lookup once the block is built)
        token_bytes = string_bytes = sample_bytes = 0
        for index, field in enumerate(schema.fields):
            column_size = self._column_sizes[index] if whole else None
            column_bytes, in_sample = self._token_bytes(index, rows, sample, column_size)
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

        This is the block's journal form: the persistence journal stores it and computes its
        chunk CRCs from it, restore checks it against those CRCs and decodes it.  Nothing else
        encodes a block, and nothing is cached — a block holds its columns, never a second
        copy of them as bytes.
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
