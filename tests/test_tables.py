import csv

import numpy as np

from samdyn.tables import write_csv


def test_write_csv_reads_back_exactly(tmp_path):
    """numpy scalars are written as the numbers they hold, bools as 0/1,
    None as an empty field, and a comma in a string is quoted."""
    path = tmp_path / "t.csv"
    x = np.float64(0.1) + np.float64(0.2)
    write_csv(path, ("f", "i", "b", "none", "s"), [
        (x, np.int64(7), np.bool_(True), None, "a, b"),
        (1.5, 3, False, None, 'say "hi"'),
    ])
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["f", "i", "b", "none", "s"]
    assert rows == [[repr(float(x)), "7", "1", "", "a, b"], ["1.5", "3", "0", "", 'say "hi"']]
    assert float(rows[0][0]) == x
    assert path.read_text().splitlines()[1] == '0.30000000000000004,7,1,,"a, b"'
