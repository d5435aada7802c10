"""Closed-form isotropic tripod stances and what breaks them.

Materializes the two solution variants of the isotropic stance family,
confirms the Jacobian condition number is exactly one there, and shows
how the condition number degrades as one hip angle is perturbed away
from the family.
"""

from pathlib import Path

import numpy as np

from legsynth.isotropy import (TripodConfig, TripodLeg, closed_form_family,
                               isotropy_report)
from legsynth.svgplot import SvgPlot

OUT = Path("demo-output/isotropy")
OUT.mkdir(parents=True, exist_ok=True)

for gamma1 in (np.pi / 3.0, -np.pi / 3.0):
    for variant in (1, 2):
        stance = closed_form_family(alpha1=0.0, gamma1=gamma1,
                                    beta=np.pi / 2, variant=variant)
        report = isotropy_report(stance)
        gammas = ", ".join(f"{np.degrees(l.mount_angle):7.1f}"
                           for l in stance.legs)
        print(f"gamma1 {np.degrees(gamma1):6.1f} deg variant {variant}: "
              f"hip angles [{gammas}] deg  isotropic={report.isotropic}  "
              f"lambda={report.lam:.4f}  condition={report.condition:.6f}")

# perturb one hip angle away from the family and watch conditioning decay
base = closed_form_family(alpha1=0.0, gamma1=np.pi / 3, beta=np.pi / 2)
offsets = np.linspace(-0.6, 0.6, 61)
conditions = []
for offset in offsets:
    legs = list(base.legs)
    bent = legs[1]
    legs[1] = TripodLeg(mount_radius=bent.mount_radius,
                        mount_angle=bent.mount_angle + offset,
                        leg_angle=bent.leg_angle,
                        foot_offset=bent.foot_offset,
                        extension=bent.extension)
    stance = TripodConfig(legs=tuple(legs), heading=base.heading,
                          char_length=base.char_length)
    conditions.append(isotropy_report(stance).condition)

worst = np.abs(isotropy_report(base).residuals).max()
print(f"family residuals at the optimum: max |r| = {worst:.1e}")

plot = SvgPlot(title="condition number vs hip-angle perturbation")
plot.add_line(np.degrees(offsets), np.array(conditions),
              label="condition of the stance map")
plot.write(OUT / "condition_sweep.svg")
print(f"wrote {OUT}/condition_sweep.svg")
