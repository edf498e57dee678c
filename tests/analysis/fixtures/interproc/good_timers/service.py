# nm-path: repro/core/fixture_timer_service.py
"""Fixture: a shared timer service — one arming site, generic callbacks."""


class TimerService:
    def __init__(self, sim):
        self.sim = sim
        self._key_gen = {}
        self._next_gen = 0

    def arm(self, key, delay, fn, *args):
        self._next_gen += 1
        gen = self._next_gen
        self._key_gen[key] = gen
        self.sim.schedule(delay, lambda: self._fire(key, gen, fn, args))

    def _fire(self, key, gen, fn, args):
        if gen != self._key_gen.get(key):
            return  # superseded or fenced: the guard comes first
        del self._key_gen[key]
        fn(*args)
