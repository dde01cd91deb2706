import numpy as np
import pytest

from graphrerank.corpus_io import RankTable
from graphrerank.graph import ImageGraph


def random_rank_table(rng, n):
    rows = np.empty((n, n - 1), dtype=np.int64)
    for i in range(n):
        others = np.array([j for j in range(n) if j != i])
        rows[i] = rng.permutation(others)
    return RankTable(rows)


# Scalar oracles over a full rank table, one pair of images at a time. The
# graph builders' vectorised weights and reciprocal test are pinned to them.


def rank_of(table, i, i2):
    """1-based position of i2 in i's full rank list."""
    if i == i2:
        raise ValueError("rank of an image within its own list is undefined")
    return int(table.positions[i, i2])


def reciprocal(table, i, i2, k):
    """Mutual top-k membership."""
    if i == i2:
        raise ValueError("reciprocity of an image with itself is undefined")
    pos = table.positions
    return bool(pos[i, i2] <= k and pos[i2, i] <= k)


def _inclusive_neighborhood(table, i, k):
    """Size-k retrieval neighborhood counting the image itself as rank 1."""
    return frozenset((int(i),) + tuple(int(x) for x in table.lists[i, : k - 1]))


def jaccard_weight(table, i, i2, k, decay_coeff):
    """Neighborhood-consistency weight for the undirected baseline."""
    if not reciprocal(table, i, i2, k):
        return 0.0
    a = _inclusive_neighborhood(table, i, k)
    b = _inclusive_neighborhood(table, i2, k)
    return decay_coeff * len(a & b) / len(a | b)


def rank_weight(table, i, i2, k, decay_coeff):
    """Reciprocal-rank weight for the directed graph; 0 unless i2 is in i's top-k."""
    if i == i2:
        raise ValueError("no self edges")
    pos = table.positions
    if pos[i, i2] > k:
        return 0.0
    return decay_coeff / float(pos[i, i2] + pos[i2, i])


def graph_of(query, nodes, edges, directed):
    """ImageGraph over the ids `nodes` with edges {(src id, dst id): weight}.

    Only maps ids to local indices; the constructor does the checking.
    """
    ids = np.array(sorted(nodes), dtype=np.int64)
    keys = np.searchsorted(ids, np.array(list(edges), dtype=np.int64).reshape(-1, 2))
    weight = np.array(list(edges.values()), dtype=np.float64)
    return ImageGraph(query, ids, keys[:, 0], keys[:, 1], weight, directed)


@pytest.fixture
def weight_fixture_table():
    """8-image corpus exercising both edge-weight schemes on images 1, 2, 3.

    Stored positions: 2 and 1 are mutually at rank 2 (weight 1/4); 3 sits at
    rank 4 of 1's list and vice versa (weight 1/8 once k reaches 5). The
    size-3 retrieval neighborhoods of 1 and 2 coincide, the size-5 ones of 1
    and 3 coincide.
    """
    return RankTable(
        np.array(
            [
                [1, 2, 3, 4, 5, 6, 7],
                [4, 2, 5, 3, 0, 6, 7],
                [4, 1, 5, 6, 0, 3, 7],
                [4, 2, 5, 1, 0, 6, 7],
                [1, 2, 3, 5, 6, 7, 0],
                [1, 2, 3, 4, 6, 7, 0],
                [2, 1, 3, 4, 5, 7, 0],
                [0, 1, 2, 3, 4, 5, 6],
            ]
        )
    )


@pytest.fixture
def structure_fixture_table():
    """12-image corpus for the directed-vs-undirected structural contrast.

    With k=5 and query 1: images 1 and 2 are mutual top-5; 3 is in 2's top-5
    but 2 is far down 3's list, so only the directed construction can reach 3
    (via the one-way edge 2 -> 3). Filler images never list 1 or 2 early.
    """
    filler_set = [0, 4, 5, 6, 7, 8, 9, 10, 11]
    rows = {}
    rows[1] = [2, 4, 5, 6, 7, 3, 8, 9, 10, 11, 0]
    rows[2] = [1, 3, 8, 9, 10, 4, 5, 6, 7, 11, 0]
    rows[3] = [8, 9, 10, 11, 0, 4, 5, 6, 7, 2, 1]
    for f in filler_set:
        rows[f] = [x for x in filler_set if x != f] + [3, 1, 2]
    return RankTable(np.array([rows[i] for i in range(12)]))
