"""RL104 bad fixture: delivery hot zones allocating *through* a helper.

RL009 sees no ``list``/``tuple`` call inside the hot methods
themselves; the call graph finds the allocation one hop away.
"""


def _snapshot(row):
    return list(row)


class CountingRouter:
    def __init__(self, n):
        self.progress = [0] * n

    def offer(self, key, row):
        view = _snapshot(row)
        return view


def missing_deps(router, row):
    return _snapshot(row)
