"""Test helpers that watch the solver's searches."""

from quandlekit.solve import Problem


def recorded_roots(monkeypatch):
    """The root variable of every search a Problem starts, with the values
    it goes over; None for the plain search.  ColouringContext inherits
    ``solutions``, so its searches are recorded too."""
    roots = []
    solutions = Problem.solutions

    def recording(self, chain=None, skip=(), *tally):
        # a chain's root goes over the representatives of every value
        roots.append(None if chain is None else (
            self.root_variable(), list(chain.representatives(range(self.m)))))
        return solutions(self, chain, skip, *tally)

    monkeypatch.setattr(Problem, "solutions", recording)
    return roots
