"""The CI workflow runs the tier-1 command that ROADMAP.md declares."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_roadmap_tier1_command():
    # the workflow cannot run offline; this is what keeps the two in step
    declared = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                         (ROOT / "ROADMAP.md").read_text())
    assert declared, "ROADMAP.md declares no tier-1 command"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert declared.group(1) in [line.strip() for line in workflow.splitlines()]
