"""Baseline model checkers for the Section 7 comparison.

The paper contrasts NICE with SPIN and Java PathFinder.  Neither tool is
available offline, so this test-side package reproduces the two *behaviors* the paper
reports (see DESIGN.md's substitution table):

* :mod:`baselines.spin_like` — a checker over the same model that
  stores **full serialized states** instead of hashes.  SPIN explores an
  abstract model efficiently but "with 7 pings runs out of memory": the
  memory footprint of full-state storage is the comparison axis.
* :mod:`baselines.jpf_like` — a checker that schedules controller
  handlers at **statement granularity** (every controller API call is a
  separate scheduling point), the way JPF interleaves Java threads.  The
  resulting explosion of interleavings is why "taken as is, JPF is slower
  than NICE by a factor of 290 with 3 pings".
"""

from baselines.jpf_like import JpfLikeSearcher, JpfSystem
from baselines.spin_like import SpinLikeSearcher

__all__ = ["JpfLikeSearcher", "JpfSystem", "SpinLikeSearcher"]
