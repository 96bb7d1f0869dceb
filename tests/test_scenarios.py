"""The scenario records: a layout is checked once, when a cell is
planned, with the text the rank program itself raises.

The witness for each scenario builds the program's inputs straight from
the record's builder (skipping every check) and runs them, so each rank
reaches its own layout check; the planner's one ParameterError must
carry exactly that text. A valid edge layout must still plan and run.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ParameterError, RankFailedError
from repro.scenarios import SCENARIOS
from repro.simmpi import run_spmd
from repro.sweep import Cell, SweepSpec, execute_cell

#: scenario -> (invalid (p, n, knobs) cases, valid edge (p, n, knobs) cases)
CASES = {
    "matmul25d": (
        [(8, 16, {"c": 3}), (12, 16, {"c": 3}), (8, 15, {"c": 2})],
        [(27, 3, {"c": 3})],  # c = q: the 3D limit, 1 x 1 tiles
    ),
    "cannon": ([(5, 16, {}), (4, 15, {})], [(16, 4, {})]),
    "summa": ([(8, 16, {}), (9, 16, {})], [(9, 3, {})]),
    "caps": ([(8, 14, {}), (7, 7, {}), (7, 12, {})], [(49, 28, {})]),
    "nbody": (
        [(12, 96, {"c": 3}), (8, 96, {"c": 3}), (8, 6, {"c": 2})],
        [(3, 64, {}), (8, 4, {})],  # the ring needs neither p | n nor p <= n
    ),
    "fft": (
        [(2, 100, {}), (16, 128, {}), (2, 64, {"all_to_all": "ring"})],
        [(8, 64, {"all_to_all": "naive"})],  # p^2 = n
    ),
    "lu2d": ([(2, 48, {}), (9, 50, {})], [(16, 4, {})]),
}


def test_every_scenario_has_witness_cases():
    assert set(CASES) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_raises_the_rank_programs_text(name):
    for p, n, knobs in CASES[name][0]:
        with pytest.raises(ParameterError) as planned:
            SweepSpec(name, n=n, p_values=(p,), params=knobs).cells()
        program, args, _ = SCENARIOS[name].build(n, np.random.default_rng(0), **knobs)
        with pytest.raises(RankFailedError) as ran:
            run_spmd(p, program, *args)
        failures = ran.value.failures
        assert sorted(failures) == list(range(p)), (p, n, knobs)
        for exc in failures.values():
            assert type(exc) is ParameterError
            assert str(exc) == str(planned.value), (p, n, knobs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_edge_layouts_still_run(name):
    for p, n, knobs in CASES[name][1]:
        (cell,) = SweepSpec(name, n=n, p_values=(p,), params=knobs).cells()
        record = execute_cell(cell)
        assert len(record.counts) == p


class TestPlanTimeTypedFailures:
    def test_mistyped_knob(self):
        with pytest.raises(ParameterError, match=r"^scenario 'nbody': c must be int, got \(3,\)$"):
            SweepSpec("nbody", n=96, p_values=(12,), params={"c": (3,)})

    def test_unknown_param(self):
        with pytest.raises(ParameterError, match="^scenario 'fft' takes no c$"):
            SweepSpec("fft", n=64, p_values=(2,), params={"c": 2})

    def test_cell_from_json_checks_the_layout(self):
        (cell,) = SweepSpec("cannon", n=16, p_values=(4,)).cells()
        payload = {**cell.to_json(), "p": 5}
        with pytest.raises(ParameterError, match="square processor count, got 5"):
            Cell.from_json(payload)

    def test_recorded_grid_side_must_match(self):
        (cell,) = SweepSpec("matmul25d", n=48, q=6, c_values=(2,)).cells()
        payload = {**cell.to_json(), "params": {**cell.params, "q": 3}}
        with pytest.raises(ParameterError, match="q=3 does not match"):
            Cell.from_json(payload)

    def test_trace_prints_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "cannon", "--p", "5"])
        assert exc.value.code == (
            "repro trace: 2D algorithms need a square processor count, got 5"
        )
