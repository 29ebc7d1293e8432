"""The numeric path of this host, against the one the byte locks were made on.

The golden reports and the demo locks pin residual bits, and those bits
depend on the OpenBLAS core and on numpy's SIMD targets.  ``golden/PATH``
holds the ``path`` line of ``tools/report_digest.py`` on the host that made
them.  A failing lock says whether this host runs that path; the comparison
itself stays byte for byte.  To rewrite the file with the locks::

    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'tools'); \\
        import report_digest; print(report_digest.path_line())" > tests/golden/PATH
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "golden" / "PATH"

_spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def path_note():
    """The sentence a failing byte lock adds: whether this host runs the
    numeric path recorded in ``golden/PATH``."""
    recorded, here = RECORDED.read_text().strip(), report_digest.path_line()
    if here == recorded:
        return f"this host runs the recorded numeric path ({here}), so the path is not the cause"
    return (f"this host's numeric path differs from the one the locks were made on, and "
            f"the bits may move with it: recorded '{recorded}' (golden/PATH), "
            f"here '{here}'")
