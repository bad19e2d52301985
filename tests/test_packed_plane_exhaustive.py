"""Exhaustive small-N equivalence of the packed plane and Eqn. 1.

The services analyse only on the packed plane: a
:class:`~repro.core.bitmatrix.BitDiagnosticMatrix` per round, and
popcount tallies fed to :func:`~repro.core.voting.h_maj_counts` per
low-latency slot.  The tuple :class:`~repro.core.syndrome.DiagnosticMatrix`
and :func:`~repro.core.voting.h_maj_explain` stay in ``repro.core`` as
the readable Eqn. 1 reference.  Rather than sampling, this module
enumerates every input at small N, in the spirit of Cassez's
exhaustive codiagnosability analysis:

* every matrix with N <= 4 whose rows are each ε or any syndrome
  (17^4 = 83,521 matrices at N = 4): :meth:`BitDiagnosticMatrix.analyse`
  gives the decisions, Eqn. 1 branches and branch tallies that
  ``h_maj_explain`` gives over the reference columns, and
  :meth:`BitDiagnosticMatrix.disagree_mask` equals the reference's;
* every vote vector in {0, 1, ε}^m with m <= 9: the low-latency
  service's two-popcount tally decides like ``h_maj_explain``.
"""

from itertools import product

import pytest

from repro.core.bitmatrix import BitDiagnosticMatrix
from repro.core.syndrome import EPSILON, DiagnosticMatrix
from repro.core.voting import h_maj_counts, h_maj_explain

_BRANCHES = ("bottom", "majority", "default")


def _reference_analysis(matrix):
    """What ``analyse`` must return, computed column by column."""
    decisions, reasons = [], []
    for j in range(1, matrix.n_nodes + 1):
        decision, reason = h_maj_explain(matrix.column(j))
        decisions.append(decision)
        reasons.append(reason)
    tallies = tuple(reasons.count(branch) for branch in _BRANCHES)
    return (tuple(decisions), tuple(reasons)) + tallies


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_small_matrix_analyses_like_the_reference(n):
    syndromes = list(product((0, 1), repeat=n))
    rows = [EPSILON] + syndromes
    matrices = 0
    for index, chosen in enumerate(product(rows, repeat=n)):
        reference = DiagnosticMatrix.from_rows(chosen)
        packed = BitDiagnosticMatrix.from_rows(chosen)
        expected = _reference_analysis(reference)
        assert packed.analyse() == expected, chosen
        # disagree_mask against the matrix's own health vector (⊥ read
        # as 1) and against a vector cycling through every 0/1 vector.
        own_hv = [1 if d is None else d for d in expected[0]]
        for hv in (own_hv, syndromes[index % len(syndromes)]):
            assert (packed.disagree_mask(hv)
                    == reference.disagree_mask(hv)), (chosen, hv)
        matrices += 1
    assert matrices == (2 ** n + 1) ** n


def test_every_vote_vector_tallies_like_the_reference():
    """The low-latency per-slot vote: reporter and ones bitmasks."""
    vectors = 0
    for m in range(10):
        for votes in product((0, 1, EPSILON), repeat=m):
            voters = ones_mask = 0
            for i, vote in enumerate(votes):
                if vote is not EPSILON:
                    voters |= 1 << i
                    if vote:
                        ones_mask |= 1 << i
            ones = (ones_mask & voters).bit_count()
            assert (h_maj_counts(ones, voters.bit_count() - ones)
                    == h_maj_explain(votes)), votes
            vectors += 1
    assert vectors == (3 ** 10 - 1) // 2
