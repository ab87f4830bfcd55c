"""RL006 bad fixture: ungated flat-backend instrumentation.

The filename (``flatstate.py``) is what makes this hot-path -- the
dense evaluation runs once per wide-row receipt.
"""


class ProgressMirror:
    def __init__(self, n_components, obs=None):
        self._obs = obs
        reg = obs.registry
        self._m_heals = reg.counter("flat.mirror_heals")  # ungated lookup
        self._g_width = reg.gauge("flat.mirror_width")

    def unsatisfied(self, row):
        self._m_heals.inc()  # ungated counter bump
        self._g_width.set(1)  # ungated gauge set
