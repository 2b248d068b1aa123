"""Every module of the package and of the test suite uses each name it
imports. ``__init__.py`` is exempt: its imports are the re-exported API.
"""

import pytest

from static_scan import MODULES, ROOT, SCANS, TEST_MODULES

CHECKED = [p for p in MODULES + TEST_MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", CHECKED,
                         ids=[str(p.relative_to(ROOT)) for p in CHECKED])
def test_no_unused_imports(path):
    scan = SCANS[path]
    unused = [f"line {line}: {name}" for name, line in scan.imports
              if name not in scan.names]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
