"""Registry of the symmetric spherical design files bundled with the package.

Files live in ``sphfit/data/designs`` as ``t{ddd}_n{nnnnn}.txt`` in the
plain point-file format, one per odd degree t = 1..57, each antipodally
symmetric and verified at generation time (see ``tools/generate_designs.py``
and the SHA-256 manifest next to the files).  Loading attaches the design
degree as metadata; re-verification is available via
:func:`sphfit.legendre.verify_design` and the CLI ``verify-design``.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

from .points import PointSet, load_point_file

_NAME_RE = re.compile(r"t(\d{3})_n(\d{5})\.txt$")


class DesignNotFoundError(FileNotFoundError):
    """No design file for the requested degree."""


def _bundled_dir() -> Path:
    root = resources.files(__package__) / "data" / "designs"
    path = Path(str(root))
    if not path.is_dir():
        raise DesignNotFoundError(
            "bundled design directory is missing; the package must be "
            "installed as plain files (not zipped)")
    return path


def _design_dir(directory) -> Path:
    """``directory``, or the bundled directory when it is None.  An empty or
    blank ``directory`` is refused: as a path it would name the current
    directory."""
    if directory is None:
        return _bundled_dir()
    if not str(directory).strip():
        raise ValueError(f"directory must name a directory, got {str(directory)!r}")
    return Path(directory)


def available_degrees(directory=None) -> list[int]:
    """Sorted degrees with a design file present."""
    directory = _design_dir(directory)
    out = []
    for f in directory.iterdir():
        m = _NAME_RE.fullmatch(f.name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def design_path(t: int, directory=None) -> Path:
    """Path of the degree-t design file, bundled or from ``directory``."""
    directory = _design_dir(directory)
    matches = sorted(directory.glob(f"t{t:03d}_n*.txt"))
    if not matches:
        have = available_degrees(directory)
        span = f"{have[0]}..{have[-1]}" if have else "none"
        raise DesignNotFoundError(
            f"no degree-{t} design file in {directory} (available: {span}); "
            "larger designs can be produced with tools/generate_designs.py")
    return matches[0]


def load_design(t: int, directory=None) -> PointSet:
    """Load the degree-t symmetric design with its degree attached."""
    if t < 1 or t % 2 == 0:
        raise ValueError(f"designs are indexed by odd positive degree, got {t}")
    return load_point_file(design_path(t, directory)).with_design_degree(t)
