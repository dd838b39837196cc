"""Exact reference laws that only the tests read."""

from typing import List, Tuple

import numpy as np

from gwtrees.codings import Tree
from gwtrees.exactlaw import enumerate_conditioned, walk_pmf
from gwtrees.offspring import OffspringLaw


def analytic_sampler_law(law: OffspringLaw, n: int) -> List[Tuple[Tree, float]]:
    """The conditioned sampler's output law computed analytically, tree by tree.

    A tree tau is produced exactly when the drawn block is one of the n
    (distinct, since the sum -1 forbids periodicity) rotations of tau's
    increment sequence, so P[tau] = n * prod_i mu(c_i) / P[W_n = -1].
    """
    table = walk_pmf(law, n, 0)
    p_sum = table.prob(-1)
    mu = law.probabilities(n)
    out = []
    for tree, _ in enumerate_conditioned(law, n):
        prob = n * float(np.prod(mu[tree.child_counts])) / p_sum
        out.append((tree, prob))
    return out
