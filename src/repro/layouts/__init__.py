"""Record schemas and physical data layouts (text row, PAX).

HAIL converts each HDFS block from the uploaded text representation to a binary PAX layout
(Ailamaki et al., VLDB 2001) on the client, before the block enters the upload pipeline.  This
package provides the schema machinery, the text row codec of stock uploads, the binary value
and column serialization, and the PAX block used by HAIL and by the Trojan-index baseline.
"""

from repro.layouts.schema import Field, FieldType, Schema, BadRecordError
from repro.layouts.row import TextRowCodec
from repro.layouts.pax import PaxBlock
from repro.layouts.zonemap import ZoneMap, block_zone_ranges
from repro.layouts import serialization

__all__ = [
    "Field",
    "FieldType",
    "Schema",
    "BadRecordError",
    "TextRowCodec",
    "PaxBlock",
    "ZoneMap",
    "block_zone_ranges",
    "serialization",
]
