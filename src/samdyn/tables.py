"""The one CSV format of every table samdyn writes, and the read of its
.npz archives.

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


def read_npz(path, kinds) -> dict:
    """The arrays of the .npz archive at path under the keys of kinds, each
    of the numpy type its key maps to (np.floating or np.integer).  Raises
    ValueError naming the file when it holds a lone array (.npy) and not
    an archive, or naming the first key it lacks or whose array is of
    another type."""
    z = np.load(path)
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz archive")
    arrays = {}
    with z:
        for key, kind in kinds.items():
            if key not in z.files:
                raise ValueError(f"{path}: the archive holds no array {key!r}")
            arrays[key] = z[key]
            if not np.issubdtype(arrays[key].dtype, kind):
                raise ValueError(f"{path}: {key} has dtype {arrays[key].dtype}, "
                                 f"expected {kind.__name__}")
    return arrays
