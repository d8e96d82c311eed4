"""The closed loop's stop rule."""

from perfbench import run


class FakeWorkload:
    def cycle(self, i):
        return [2 * i, 2 * i + 1]


def _loop(seconds, reserve_units):
    steps = []

    def step(unit):  # every unit takes one second
        steps.append(unit)

    run.closed_loop(FakeWorkload(), seconds, step, clock=lambda: len(steps),
                    reserve_units=reserve_units)
    return steps


def test_first_cycle_always_runs_in_full():
    assert _loop(0, 0) == [0, 1]


def test_stops_when_the_next_unit_would_end_late():
    assert _loop(6, 0) == [0, 1, 2, 3, 4, 5]


def test_reserved_units_leave_room_at_the_end():
    assert _loop(6, 1) == [0, 1, 2, 3, 4]
