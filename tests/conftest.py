"""Fixtures shared by the test modules."""

import pytest

from misobeam import cli, conic, design
from misobeam.model import ChannelSet, QosSpec

# The suite runs on one BLAS thread, as the misobeam command does, unless a
# thread variable is set: threaded BLAS sums in another order, so results at
# n = 8 round otherwise, and at these sizes threads cost more time than
# they save.
cli._pin_blas()


@pytest.fixture
def solves(monkeypatch) -> list:
    """The program lists ``conic.solve_batch`` receives during the test, in
    order; ``conic.solve`` hands it a list of one program, and an
    experiment one list, every method's programs, per chunk of trials.

    The design memory holds the requests of the last list that solved
    anything, so a 1 x 1 request that no test repeats first replaces it:
    the test's first design request is then never answered from an earlier
    test's list.
    """
    design.design_nominal(ChannelSet([[0.5 + 0.25j]]), QosSpec(gamma=[0.5], sigma=[0.75]))
    solved, solve_batch = [], conic.solve_batch

    def counted(programs, settings=None):
        programs = list(programs)  # a design hands over a generator
        solved.append(programs)
        return solve_batch(programs, settings)

    monkeypatch.setattr(conic, "solve_batch", counted)
    return solved
