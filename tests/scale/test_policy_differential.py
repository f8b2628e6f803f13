"""Three-way differential: inline == fail-fast pool == supervised pool.

One barrier serves every supervision policy, so a drawn scenario must
produce the same digest single-process, on a 2-worker pool under the
:data:`~repro.scale.pool.FAIL_FAST` policy, and on a 2-worker pool under
:class:`~repro.scale.spec.SupervisorSpec` defaults — and neither pooled
run may restart a worker.  Each example forks workers, so horizons stay
short and ``max_examples`` low.
"""

import dataclasses

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.conformance.generators import scenario_specs
from repro.scale import SupervisorSpec, build_groups, run_scenario


def _runnable(spec, slots):
    """The drawn spec made runnable: short, chaos-free, unsupervised.

    ``scenario_specs`` fuzzes serialization, so its stage params are
    arbitrary keywords and its layer counts ignore the antenna count;
    both are reset to legal values.  Any other build-time rejection
    (RU grids too narrow, clashing wire specs) discards the example.
    """
    cells = tuple(
        dataclasses.replace(
            cell,
            max_dl_layers=min(cell.max_dl_layers, cell.n_antennas),
            chain=tuple(
                dataclasses.replace(stage, params={}) for stage in cell.chain
            ),
        )
        for cell in spec.cells
    )
    spec = dataclasses.replace(
        spec, cells=cells, slots=slots, supervisor=None, process_chaos=()
    )
    try:
        build_groups(spec)
    except ValueError:
        reject()
    return spec


@given(
    spec=scenario_specs(max_cells=3),
    slots=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=8, deadline=None)
def test_inline_fail_fast_and_supervised_digests_agree(spec, slots):
    spec = _runnable(spec, slots)
    inline = run_scenario(spec, workers=1)
    fail_fast = run_scenario(spec, workers=2)
    supervised = run_scenario(
        dataclasses.replace(spec, supervisor=SupervisorSpec()), workers=2
    )
    assert fail_fast.digest == inline.digest
    assert supervised.digest == inline.digest
    assert fail_fast.recovery["total_restarts"] == 0
    assert supervised.recovery["total_restarts"] == 0
