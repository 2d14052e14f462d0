"""The one CSV format of every table samdyn writes.

Fields go through the csv module, which quotes a field only when it holds
a comma, a quote or a line break.  Floats, Python or numpy, are written as
repr(float(x)), which float() reads back exactly; bools as 0/1; None as an
empty field, which optional reads back as None.  Config files share that
convention: an optional key with an empty value is unset.
"""

import csv

import numpy as np


def write_csv(path, columns, rows) -> None:
    """Write the header columns, then one line per row of raw values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_field(v) for v in row] for row in rows)


def _field(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value  # str() of a Python or numpy integer is its digits


def optional(parse):
    """Reader of a field that holds parse's value or None: an empty field is None."""
    def parse_optional(field: str):
        return None if field == "" else parse(field)
    return parse_optional
