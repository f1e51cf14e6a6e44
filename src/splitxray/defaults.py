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
fd_step           1e-3         stencil step h; stencils also take h/2 and
                               Richardson-extrapolate
seed              2025         RNG seed for all sampled data
max_degree        4            top even basis degree
n_frames          120          frames for injectivity/reconstruction
connection        flagship-u1  named connection preset
state_a           1,0,1j,0     elementary-state covectors of
state_b           1j,0,1,0     penrose-elementary
save_design       None         path prefix for the design-matrix CSV + JSON
================  ===========  ==========================================

POLE_MARGIN is the library's default minimum distance of a pole from the
integration circle (the `margin` of the penrose functions).  It is not a
configuration key: the suites also refuse every frame whose analyticity
strip is narrower than their node count needs, and that rule, not the
margin, decides which frames they integrate.
"""

TOLERANCES = {
    "john": 1e-6,
    "weight_law": 1e-9,
    "equivariance": 1e-9,
    "moments": 1e-6,
    "reconstruction": 1e-6,
    "rank_defect": 0.0,
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

POLE_MARGIN = 1e-3

DEFAULTS = {
    "nodes": 128,
    "fd_step": 1e-3,
    "seed": 2025,
    "max_degree": 4,
    "n_frames": 120,
    "connection": "flagship-u1",
    # elementary-state covectors for the penrose suite (complex literals)
    "state_a": ["1", "0", "1j", "0"],
    "state_b": ["1j", "0", "1", "0"],
    # optional path prefix for the design-matrix CSV + JSON sidecar
    "save_design": None,
}
