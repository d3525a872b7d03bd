"""Every size limit of the package, each defined once.

Everything is exact, so the limits bound enumeration cost and integer
size, never precision.  An input beyond one raises `TooLargeError` (CLI
exit code 3).  The README "Size limits" table lists the same constants.
"""

from __future__ import annotations

from .errors import TooLargeError

BRUTE_MAX = 12           # vertices: explicit subtree listing, 2**n subsets each backtracked
CENSUS_MAX = 22          # vertices: connected-subset census, so also family core length
SPANNING_MAX = 40        # vertices: one Kirchhoff determinant of a whole graph
MARKED_MAX = 6           # marked vertices per census: up to 2**6 mark cells, one per subset
EXPONENT_CAP = 1 << 20   # bits of an exact power: 2**s per star, (a+1)**(n-b) per stem class
MAX_MATERIALIZED = 64    # vertices: graphs built from family or host parameters
SCAN_MAX = 20            # vertices: k-edge addition scan, one 2-forest pass per (k-1)-edge prefix
CORPUS_MAX = 12          # vertices: graphs scanned from a graph6 corpus
SWEEP_MAX = 16           # vertices: tree sweep, one DP per unlabeled tree (19,320 at n = 16)
STEM_M_MAX = 64          # A-side vertices: the stem-class grid has about m**2/2 classes
STEM_ENUM_MAX = 10       # a + b: Prüfer stem enumeration, the test oracle only


def check_exponent(bits: int, what: str) -> None:
    """Refuse an exact power of about `bits` bits beyond `EXPONENT_CAP`."""
    if bits > EXPONENT_CAP:
        raise TooLargeError(f"{what} exceeds the {EXPONENT_CAP}-bit exponent cap")
