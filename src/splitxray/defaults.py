"""The single table of defaults and check tolerances.

Every CLI suite and the acceptance tests read from here, and every
tolerance is read by some suite; nothing else in the package hardcodes a
tolerance.  The keys of DEFAULTS are the configuration keys a run may set
(besides `command`, `output` and `format`); the tolerances are not among
them, so a check always compares against its entry in TOLERANCES, keyed
by the check name before its ":".

================  ===========  ==========================================
key               default      meaning
================  ===========  ==========================================
nodes             128          quadrature nodes of every circle integral
seed              2025         RNG seed for all sampled data
max_degree        4            top even basis degree
n_frames          120          frames for injectivity/reconstruction
save_design       None         path prefix for the design-matrix CSV + JSON
================  ===========  ==========================================

FD_STEP and POLE_MARGIN are library constants, not configuration keys,
and so is each suite's witness: the instanton suites check the connection
flagship-u1, and penrose-elementary its two fixed elementary states.
FD_STEP is the step h of every finite-difference stencil (the stencils
also take h/2 and Richardson-extrapolate).  POLE_MARGIN is the default
minimum distance of a pole from the integration circle (the `margin` of
the penrose functions): the suites also refuse every frame whose
analyticity strip is narrower than their node count needs, and that rule,
not the margin, decides which frames they integrate.
"""

TOLERANCES = {
    "john": 1e-6,
    "weight_law": 1e-9,
    "equivariance": 1e-9,
    "moments": 1e-6,
    "reconstruction": 1e-6,
    "rank_defect": 0.0,
    "basis_dimension": 0.0,
    "selfdual": 1e-10,
    "star_involution": 1e-14,
    "gauge_invariance": 1e-8,
    "coupled_box": 1e-6,
    "gauge_covariance": 1e-6,
    "penrose_value": 1e-12,
    "penrose_ratio_spread": 1e-8,
    "penrose_john": 1e-6,
    "geometry_roundtrip": 1e-12,
}

# The tolerances of the finite-difference checks (john, moments,
# gauge_covariance, penrose_john) were pinned at this step.
FD_STEP = 1e-3

POLE_MARGIN = 1e-3

DEFAULTS = {
    "nodes": 128,
    "seed": 2025,
    "max_degree": 4,
    "n_frames": 120,
    # optional path prefix for the design-matrix CSV + JSON sidecar
    "save_design": None,
}
