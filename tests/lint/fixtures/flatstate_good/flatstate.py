"""RL006 good fixture: flat-backend hooks gated, ``and``-chain form."""


class ProgressMirror:
    def __init__(self, n_components, obs=None):
        self._obs = obs
        if obs is not None and obs.enabled:
            reg = obs.registry
            self._m_heals = reg.counter("flat.mirror_heals")
            self._g_width = reg.gauge("flat.mirror_width")

    def unsatisfied(self, row):
        if self._obs is not None and self._obs.enabled:
            self._m_heals.inc()
            self._g_width.set(1)
