"""The query IR and the record schema: the bottom layer every other package reads.

- :mod:`repro.query.schema` -- record schemas (:class:`Schema`, :class:`Field`,
  :class:`FieldType`) and the bad-record rule of the HAIL client (Section 3.1);
- :mod:`repro.query.predicate` -- selection predicates, the compiled :class:`Query` every
  system executes and :func:`render_sql`, its SQL label;
- :mod:`repro.query.annotation` -- the ``@HailQuery`` annotation (Section 4.1) and where a job
  carries it.

The split phase, the planner, the zone maps and the readers all read these, so this package
imports no other ``repro`` package.
"""
