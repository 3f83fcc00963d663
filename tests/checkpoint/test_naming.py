"""A checkpoint is named the same way on every backend that captures
one: the policy's own ``run_id`` wins over the run's, and the run's id
names it when the policy gives none."""

import os

import pytest

from repro.checkpoint import Checkpoint
from repro.exec import run_graph
from repro.exec.spec import OPTIONS

CAPTURING = sorted(b for b, cell in OPTIONS["checkpoint"].cells.items()
                   if cell.action == "honoured")


@pytest.mark.parametrize("policy_id, want", [("X", "X"), ("", "Y")])
@pytest.mark.parametrize("backend", CAPTURING)
def test_checkpoint_name_and_run_id_match_across_backends(
        fig4_graph, tmp_path, backend, policy_id, want):
    policy = {"dir": str(tmp_path), "at_end": True}
    if policy_id:
        policy["run_id"] = policy_id
    result = run_graph(fig4_graph, [1, 2, 3], [], backend=backend,
                       run_id="Y", checkpoint=policy)
    assert result.completed and result.run_id == "Y"
    assert os.listdir(tmp_path) == [f"ckpt_{want}_0000.ckpt.json"]
    assert Checkpoint.load(str(tmp_path / os.listdir(tmp_path)[0])
                           ).run_id == want
