"""An independent CSV panel reader: the oracle for ``gmmdc.cli``'s reader.

It parses with ``csv.DictReader`` and converts every cell with Python's
``float``, one row at a time. It is never imported by ``src/``.
"""

import csv

import numpy as np


def read_columns(path):
    """Column name -> list of cell strings (None for cells missing from short rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        columns = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in columns:
                columns[name].append(row[name])
    return columns


def numeric(columns, names):
    """The named columns as an (n, len(names)) float array."""
    return np.column_stack([np.asarray([float(v) for v in columns[name]]) for name in names])


def panel_arrays(columns, id_col, time_col, value_cols):
    """One (N, T) array per value column: ids in order of first appearance,
    times sorted; raises ValueError on a repeated or missing (id, time) cell."""
    ids_raw = columns[id_col]
    times = numeric(columns, [time_col])[:, 0]
    values = numeric(columns, value_cols)
    order = {}
    for label in ids_raw:
        order.setdefault(label, len(order))
    time_index = {t: i for i, t in enumerate(np.unique(times))}
    filled = np.zeros((len(order), len(time_index)), dtype=bool)
    panels = [np.full(filled.shape, np.nan) for _ in value_cols]
    for row, (label, t) in enumerate(zip(ids_raw, times)):
        i, ti = order[label], time_index[t]
        if filled[i, ti]:
            raise ValueError(f"duplicate (id, time) cell for id {label!r}, time {t}")
        filled[i, ti] = True
        for p, panel in enumerate(panels):
            panel[i, ti] = values[row, p]
    if not filled.all():
        raise ValueError("panel is unbalanced: some (id, time) cells are missing")
    return panels
