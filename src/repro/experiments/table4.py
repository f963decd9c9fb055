"""Table 4: requests exceeding 8 seconds during failover at doubled load.

"Response times exceeding 8 seconds cause computer users to get
distracted ... making this a common threshold for Web site abandonment";
the table counts how many requests crossed it while a node was being
failed over and recovered.  Paper: 3,227 / 530 / 55 / 9 requests for
process restarts on 2/4/6/8 nodes, versus 3 / 0 / 0 / 0 for microreboots.
"""

from repro.experiments import figure4
from repro.experiments.common import ExperimentResult

PAPER = {
    (2, "process-restart"): 3227,
    (4, "process-restart"): 530,
    (6, "process-restart"): 55,
    (8, "process-restart"): 9,
    (2, "microreboot"): 3,
    (4, "microreboot"): 0,
    (6, "microreboot"): 0,
    (8, "microreboot"): 0,
}


#: Table 4 is a column of the Figure 4 sweep, at Figure 4's scales.
SCALES = figure4.SCALES


def run(seed=0, scale="bench", jobs=1):
    """Table 4 is the >8 s column of the Figure 4 sweep."""
    figure_result, outcomes = figure4.run(seed=seed, scale=scale, jobs=jobs)
    result = ExperimentResult(
        name="Requests exceeding 8 s during failover under doubled load",
        paper_reference="Table 4",
        headers=("# of nodes", "recovery", "paper", "measured"),
    )
    for outcome in outcomes:
        key = (outcome["n_nodes"], outcome["recovery"])
        result.rows.append(
            (
                outcome["n_nodes"],
                outcome["recovery"],
                PAPER.get(key, "-"),
                outcome["over_8s"],
            )
        )
    result.notes.extend(figure_result.notes)
    return result, outcomes
