"""Plain-Python answers the benchmark checks the program's outputs against.

Each function recomputes one workload's result from the same generated
input without going through RHEEM: wordcount, join and k-means replay the
input generation of ``repro.core.serving.workloads`` from the spec's seed;
the two detection rules scan the dirty tax table directly.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter, defaultdict

#: the vocabulary of ``repro.core.serving.workloads.wordcount``
VOCAB = (
    "freedom", "road", "data", "analytics", "plan", "platform",
    "cost", "query", "cache", "tenant",
)

#: largest accepted difference of one k-means coordinate (the program sums
#: cluster members in another order, then rounds to 6 decimals)
KMEANS_TOLERANCE = 2e-6


def wordcount(seed: int, lines: int = 12, width: int = 6, chain: int = 0):
    """``chain`` only adds no-op stages to the program's plan."""
    rng = random.Random(seed)
    words = Counter()
    for _ in range(lines):
        words.update(rng.choice(VOCAB) for _ in range(width))
    return sorted(words.items(), key=lambda pair: (-pair[1], pair[0]))


def join(seed: int, rows: int = 16):
    rng = random.Random(seed)
    keys = max(1, rows // 2)
    left = [(i % keys, rng.randrange(100)) for i in range(rows)]
    right = [(i % keys, rng.randrange(100)) for i in range(rows // 2)]
    by_key = defaultdict(list)
    for row in right:
        by_key[row[0]].append(row)
    pairs = [(l, r) for l in left for r in by_key[l[0]]]
    return sorted(pairs, key=lambda pair: (pair[0][0], pair[0][1], pair[1][1]))


def kmeans(seed: int, points: int = 24, k: int = 3, iters: int = 3):
    """Lloyd's algorithm with the builder's tie-break and rounding."""
    rng = random.Random(seed)
    data = [
        (round(rng.uniform(0.0, 10.0), 3), round(rng.uniform(0.0, 10.0), 3))
        for _ in range(points)
    ]
    centroids = data[:k]
    distinct = list(dict.fromkeys(data))
    for _ in range(iters):
        sums: dict = {}
        for x, y in distinct:
            best = min(
                centroids,
                key=lambda c: ((x - c[0]) ** 2 + (y - c[1]) ** 2, c),
            )
            sx, sy, n = sums.get(best, (0.0, 0.0, 0))
            sums[best] = (sx + x, sy + y, n + 1)
        centroids = sorted(
            (round(sx / n, 6), round(sy / n, 6)) for sx, sy, n in sums.values()
        )
    return centroids


def same_centroids(got, expected) -> bool:
    return len(got) == len(expected) and all(
        len(a) == len(b)
        and all(abs(u - v) <= KMEANS_TOLERANCE for u, v in zip(a, b))
        for a, b in zip(got, expected)
    )


def fd_violations(rows, lhs: str, rhs: str):
    """Cells of every pair that agrees on ``lhs`` and differs on ``rhs``."""
    blocks = defaultdict(list)
    for tid, row in enumerate(rows):
        blocks[row[lhs]].append((tid, row[rhs]))
    found = []
    for members in blocks.values():
        for a, (tid_a, value_a) in enumerate(members):
            for tid_b, value_b in members[a + 1:]:
                if value_a != value_b:
                    found.append(tuple(sorted(
                        ((tid_a, rhs, value_a), (tid_b, rhs, value_b))
                    )))
    return sorted(found)


def dc_violations(rows, block: str, greater: str, less: str):
    """Cells of every ordered pair (t1, t2) of one ``block`` value with
    ``t1.greater > t2.greater`` and ``t1.less < t2.less``.

    Within a block, rows are visited by ascending ``greater``; each row
    looks up the earlier (strictly smaller) rows whose ``less`` is larger
    in a list kept sorted by ``less``, so the scan costs O(n log n) plus
    the violations it reports.
    """
    blocks = defaultdict(list)
    for tid, row in enumerate(rows):
        blocks[row[block]].append((row[greater], row[less], tid))
    found = []
    for members in blocks.values():
        members.sort()
        smaller: list = []  # (less, tid, greater), sorted
        start = 0
        while start < len(members):
            stop = start
            while stop < len(members) and members[stop][0] == members[start][0]:
                stop += 1
            for g1, l1, tid1 in members[start:stop]:
                first = bisect.bisect_right(smaller, (l1, math.inf))
                for l2, tid2, g2 in smaller[first:]:
                    found.append(tuple(sorted((
                        (tid1, greater, g1), (tid2, greater, g2),
                        (tid1, less, l1), (tid2, less, l2),
                    ))))
            for g1, l1, tid1 in members[start:stop]:
                bisect.insort(smaller, (l1, tid1, g1))
            start = stop
    return sorted(found)


def violation_cells(violations) -> list:
    """The program's violations in the form the references return."""
    return sorted(
        tuple((cell.tid, cell.field, cell.value) for cell in v.cells)
        for v in violations
    )
