"""Audit walking-machine structures for actuation rationality.

A structure is rational when its mobility count equals its number of
actuated inputs.  The reference set contrasts a tripod-stance hexapod
(rational with six drives) against an eight-legged machine whose rigid
body makes twelve drives fight over six freedoms until the body is
split into articulated segments.
"""

from legsynth.mobility import MechanismGraph, mobility, reference_graphs

print(f"{'mechanism':50s} {'W':>3} {'inputs':>7}  diagnosis")
for result in map(mobility, reference_graphs()):
    inputs = "-" if result.actuated_inputs is None else result.actuated_inputs
    print(f"{result.label:50s} {result.dof:>3} {inputs!s:>7}  "
          f"{result.diagnosis}")

# a plain planar four-bar with one crank drive, for comparison
four_bar = MechanismGraph(space="planar", moving_links=3, p5=4,
                          actuated_inputs=1, label="planar four-bar")
result = mobility(four_bar)
print(f"{four_bar.label:50s} {result.dof:>3} {result.actuated_inputs:>7}  "
      f"{result.diagnosis}")
