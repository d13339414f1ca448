"""The paper's theorem on every circuit of two small shapes (see
``theorem_sweep.py``, whose full sweep CI runs).

On 2/2/4 the kernel is not the only judge of its own output: each pair
verdict is checked against the test-side truth-table oracle, and each
first detecting row against the assignments that oracle finds.
"""

from reference_sim import FULL_MASK, exor_stimulation_mask, reference_difference
from theorem_sweep import check, circuits, sweep

from bridgetest import FaultKind
from bridgetest.simulate import DETECTED, REDUNDANT


def test_every_circuit_of_3_2_3():
    assert sweep([(3, 2, 3)]) == (4096, None)


def test_every_circuit_of_2_2_4_against_the_reference_oracle():
    # with the test above, about 4 s on a 2-core container with Python 3.11
    count = 0
    for network in circuits(2, 2, 4):
        faults, run, problem = check(network)
        assert problem is None, problem
        rows, status, first = run.union.rows, run.evaluation.status, run.evaluation.first
        masks = exor_stimulation_mask(network, rows)
        assignments = [int(row.replace("d", "0"), 2) for row in rows]  # d filled with 0
        for k, fault in enumerate(faults):
            if fault.kind is FaultKind.EXOR_INTERNAL:
                detected = masks[fault.ids[0] - 1] == FULL_MASK
                # only a gate on the constant line alone never sees its AND at 0
                support = network.gate_supports[fault.ids[0] - 1]
                assert detected or support <= {network.constant_line}, (fault, network)
            else:
                diff = reference_difference(network, fault)
                detected = diff != 0
                if detected:  # first[k] is the first row among the assignments
                    hits = [diff >> v & 1 for v in assignments]
                    assert hits.index(1) == first[k], (fault, network)
            assert status[k] == (DETECTED if detected else REDUNDANT), (fault, network)
        count += 1
    assert count == 4096
