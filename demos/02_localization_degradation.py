"""How degradation hits each policy's localization.

GPS variance inflates with the degradation level and GPS is out during
outages; the onboard estimator is coarse but immune; the fused variance
tracks whichever source is healthier and falls back to the onboard one
while GPS is out. The table below shows the per-axis variances and the
expected outage burden per degradation level.
"""

import numpy as np

from medmission import (
    DEFAULT_LOCALIZATION_PARAMS as LOC,
    outage_schedule,
)

HORIZON = 600.0

print(f"{'delta':>6} {'gps var':>9} {'auto var':>9} {'fused var':>10} "
      f"{'fused, gps out':>15} {'outage %':>9}")
for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
    rng = np.random.default_rng(7)
    fractions = []
    for _ in range(2000):
        profile = outage_schedule(delta, HORIZON, np.random.default_rng(
            int(rng.integers(1 << 32))))
        fractions.append(profile.total_outage() / HORIZON)
    print(f"{delta:>6.2f} {LOC.gps_variance(delta):>9.1f} "
          f"{LOC.auto_variance():>9.1f} {LOC.fused_variance(delta):>10.2f} "
          f"{LOC.fused_variance(delta, gps_valid=False):>15.2f} "
          f"{100 * np.mean(fractions):>8.2f}%")

profile = outage_schedule(1.0, HORIZON, np.random.default_rng(12345))
print("\nsampled outages at delta=1:",
      [(round(s, 1), round(e, 1)) for s, e in profile.outages] or "none")
