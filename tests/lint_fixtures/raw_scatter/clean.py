"""Clean rewrite: the segment-sum scatter from repro.mttkrp.scatter."""
from repro.mttkrp.scatter import RowScatter


def sgd_batches(out, rows, contribs):
    for start in range(0, rows.size, 128):
        batch = slice(start, start + 128)
        RowScatter(rows[batch]).scatter_accumulate(out, contribs[batch])
