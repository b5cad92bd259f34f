"""The reading surface has a byte budget.

The project's own top-level documents (``DOCUMENTS``) may not grow past
``BUDGET`` bytes together.  The paper's abstract and the retrieved
related work and code (PAPER / PAPERS / SNIPPETS) are not counted.  A
change that needs more room cuts elsewhere, or raises the budget with a
CHANGES line that says why.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md", "EXPERIMENTS.md")
BUDGET = 322_000


def test_top_level_markdown_within_budget():
    sizes = {name: (ROOT / name).stat().st_size for name in DOCUMENTS}
    total = sum(sizes.values())
    assert total <= BUDGET, f"top-level Markdown is {total} bytes, over the {BUDGET} budget: {sizes}"
