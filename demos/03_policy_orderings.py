"""Three planners, one patient field.

The teleoperator mostly flies to the nearest patient but sometimes picks
another; pure autonomy runs exact nearest-neighbor; the triage-aware
planner ranks by a priority score that combines severity, urgency, and
accessibility, so severe-but-reachable patients jump the queue no matter
how far away they are.
"""

import numpy as np

from medmission import (
    Condition,
    StreamPurpose,
    derive_stream,
    generate_scenario,
    order_heuristic,
    order_teleop,
    order_triage,
    triage_score,
)

condition = Condition(0, 0.5, 8)
scenario = generate_scenario(condition, derive_stream(42, 0, 0, 0,
                                                      StreamPurpose.SCENARIO))

print(f"{'id':>3} {'dist from base':>14} {'sev':>6} {'access':>7} {'score':>7}")
for p in scenario.patients:
    d = np.hypot(*p.position)
    print(f"{p.id:>3} {d:>13.0f}m {p.severity:>6.2f} {p.accessibility:>7.2f} "
          f"{triage_score(p):>7.3f}")

teleop = order_teleop(scenario, derive_stream(42, 0, 0, 0, StreamPurpose.MISSION))
print("\nteleoperation (noisy nearest-neighbor):", teleop)
print("heuristic autonomy (nearest-neighbor):  ", order_heuristic(scenario))
print("triage-aware planning (by score):       ", order_triage(scenario))
