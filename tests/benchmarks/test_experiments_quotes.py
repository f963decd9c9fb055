"""EXPERIMENTS.md quotes what the benchmarks render.

Every measured number in the Figure 3, Figure 4 and Table 4 sections must
be the one in the `benchmarks/results/` file the section cites, in the same
row (cluster size, recovery) and column; a row the doc marks "—" must be
one that file does not render, and Table 4's paper column must be the
paper's.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import table4

ROOT = Path(__file__).resolve().parents[2]
RESTART, MICRO = "process-restart", "microreboot"

#: section title -> {doc table column: (recovery, results column)}, the
#: results columns counted after the node count and the recovery.
SECTIONS = {
    "Figure 3": {1: (RESTART, 0), 2: (MICRO, 0), 3: (RESTART, 2),
                 4: (MICRO, 2)},
    "Figure 4": {1: (RESTART, 0), 2: (RESTART, 1), 3: (MICRO, 0),
                 4: (MICRO, 1)},
    "Table 4": {2: (RESTART, 1), 4: (MICRO, 1)},
}


def section(title):
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index(f"\n## {title} ")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def rendered(text):
    """The results file ``text`` cites, as {(nodes, recovery): cells}."""
    (name,) = re.findall(r"rendered: `(benchmarks/results/[\w.]+)`", text)
    rows = {}
    lines = (ROOT / name).read_text(encoding="utf-8").splitlines()
    for line in lines:
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) > 2 and cells[0].isdigit() and cells[1] in (
            RESTART, MICRO,
        ):
            rows[int(cells[0]), cells[1]] = cells[2:]
    return rows, lines


def quoted_rows(text):
    """The section's markdown table body, one list of cells per row."""
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("| ")
    ]
    return rows[1:]


@pytest.mark.parametrize("title", list(SECTIONS))
def test_quoted_numbers_are_the_rendered_ones(title):
    text = section(title)
    results, _lines = rendered(text)
    rows = quoted_rows(text)
    assert rows
    for row in rows:
        nodes = int(row[0])
        for column, (recovery, index) in SECTIONS[title].items():
            if row[column] == "—":
                assert (nodes, recovery) not in results, (title, row)
            else:
                assert row[column] == results[nodes, recovery][index], (
                    title, row, column,
                )
    # Every rendered cluster size is quoted.
    assert {nodes for nodes, _recovery in results} <= {
        int(row[0]) for row in rows
    }


def test_table4_paper_column_is_the_papers():
    for row in quoted_rows(section("Table 4")):
        nodes = int(row[0])
        assert int(row[1]) == table4.PAPER[nodes, RESTART]
        assert int(row[3]) == table4.PAPER[nodes, MICRO]


def test_figure3_quoted_means_are_the_rendered_note():
    text = section("Figure 3")
    _results, lines = rendered(text)
    (restart, micro), = re.findall(
        r"mean failed requests: restart (\d+), µRB (\d+)", text
    )
    assert (
        f"note: mean failed requests: restart {restart}, µRB {micro}"
        in lines
    )
