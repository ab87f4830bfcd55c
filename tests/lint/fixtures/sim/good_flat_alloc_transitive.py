"""RL104 good fixture: hot-path helpers stay allocation-free."""


def _advance(row, idx):
    row[idx] += 1
    return row[idx]


class CountingRouter:
    def __init__(self, n):
        self.progress = [0] * n

    def offer(self, key, idx):
        return _advance(self.progress, idx)


def missing_deps(router, idx):
    return _advance(router.progress, idx)
