"""Physical data layouts (text row, PAX) and the zone maps over them.

HAIL converts each HDFS block from the uploaded text representation to a binary PAX layout
(Ailamaki et al., VLDB 2001) on the client, before the block enters the upload pipeline.  This
package provides the text row codec of stock uploads (:mod:`repro.layouts.row`), the binary
value and column serialization (:mod:`repro.layouts.serialization`), the PAX block used by HAIL
and by the Trojan-index baseline (:mod:`repro.layouts.pax`) and its per-column min/max synopses
(:mod:`repro.layouts.zonemap`).  The schemas they encode live in :mod:`repro.query.schema`.
"""
