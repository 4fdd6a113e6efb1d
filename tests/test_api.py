import re
from pathlib import Path

import abelfft

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_public_api_lists_exactly_all():
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1]
    section = section.split("\n#", 1)[0]  # up to the next heading
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(abelfft.__all__)
