"""Mobility (degree-of-freedom) counts and actuation-rationality checks.

The classic structural formulas: a planar chain with n moving links has
W = 3n - 2 p5 - p4 degrees of freedom, a spatial chain
W = 6n - 5 p5 - 4 p4 - 3 p3 - 2 p2 - p1, where p_c counts the joints that
remove c degrees of freedom (p5 = one-DoF pairs such as revolutes and
prismatics, p3 = three-DoF pairs such as spherical joints).  A structure
is "rational" when W equals the number of actuated inputs: no redundant
actuation fighting itself through the structure, and no uncontrolled
freedoms.  No corrections for passive DoF or redundant constraints are
applied (plain Gruebler idealization).
"""

from dataclasses import dataclass

PLANAR = "planar"
SPATIAL = "spatial"


@dataclass(frozen=True)
class MechanismGraph:
    """Joint census of one mechanism.

    p5..p1 count kinematic pairs by the number of constraints they
    impose (a planar graph takes only p5 and p4); actuated_inputs may be
    None when actuation is not being audited.
    """

    space: str
    moving_links: int
    p5: int = 0
    p4: int = 0
    p3: int = 0
    p2: int = 0
    p1: int = 0
    actuated_inputs: int = None
    label: str = ""

    def __post_init__(self):
        if self.space not in (PLANAR, SPATIAL):
            raise ValueError("space must be 'planar' or 'spatial'")
        counts = (self.moving_links, self.p5, self.p4, self.p3,
                  self.p2, self.p1)
        if any(c < 0 for c in counts):
            raise ValueError("link and joint counts must be non-negative")
        if self.space == PLANAR and (self.p3 or self.p2 or self.p1):
            raise ValueError("a planar graph has no p3, p2 or p1 pairs")
        total_joints = self.p5 + self.p4 + self.p3 + self.p2 + self.p1
        if self.actuated_inputs is not None:
            if self.actuated_inputs < 0:
                raise ValueError("actuated_inputs must be non-negative")
            if self.actuated_inputs > total_joints:
                raise ValueError("cannot actuate more joints than exist")


@dataclass(frozen=True)
class MobilityResult:
    """Degrees of freedom and the actuation diagnosis for one graph."""

    label: str
    dof: int
    actuated_inputs: int
    rational: bool
    diagnosis: str


def mobility(graph):
    """Evaluate the structural formula and compare against actuation."""
    if graph.space == PLANAR:
        dof = 3 * graph.moving_links - 2 * graph.p5 - graph.p4
    else:
        dof = (6 * graph.moving_links - 5 * graph.p5 - 4 * graph.p4
               - 3 * graph.p3 - 2 * graph.p2 - graph.p1)
    if graph.actuated_inputs is None:
        rational, diagnosis = None, "unaudited"
    elif graph.actuated_inputs == dof:
        rational, diagnosis = True, "rational"
    elif graph.actuated_inputs > dof:
        rational, diagnosis = False, "redundant-actuation"
    else:
        rational, diagnosis = False, "under-actuated"
    return MobilityResult(label=graph.label, dof=dof,
                          actuated_inputs=graph.actuated_inputs,
                          rational=rational, diagnosis=diagnosis)


def reference_graphs():
    """The four hexapod/octopod census fixtures used by the audit demo.

    Counts follow the worked structural-formula examples for the
    tripod-gait hexapod (planar equivalent and spatial scheme) and the
    eight-legged machine before and after segmenting its body; moving
    links include the body segment(s).
    """
    return [
        MechanismGraph(space=PLANAR, moving_links=7, p5=9,
                       label="hexapod tripod stance, planar equivalent"),
        MechanismGraph(space=SPATIAL, moving_links=10, p5=9, p3=3,
                       actuated_inputs=6,
                       label="hexapod tripod stance, spatial scheme"),
        MechanismGraph(space=SPATIAL, moving_links=13, p5=12, p3=4,
                       actuated_inputs=12,
                       label="octopod, rigid body, four-leg stance"),
        MechanismGraph(space=SPATIAL, moving_links=15, p5=14, p3=4,
                       actuated_inputs=8,
                       label="octopod, segmented body, four-leg stance"),
    ]
