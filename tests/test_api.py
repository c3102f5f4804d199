import toric_additive

# The public names of the package, written out so that adding or dropping
# one is a visible change to this list.
PUBLIC_NAMES = [
    "ActionClass", "ActionMap", "AdmissibleBasis", "AnnihilatorReport",
    "ClGrading", "Classification", "CompleteCollection", "DemazureRoot",
    "Derivation", "DuplicateRay", "Fan2", "FanValidationError",
    "Inconclusive", "InternalInconsistency", "LndFamily", "NotApplicable",
    "NotCommuting", "NotComplete", "NotHomogeneous", "NotLocallyNilpotent",
    "NotPrimitive", "NotRegular", "Poly", "PolyRing", "RootSystem",
    "SweepReport", "TooFewRays", "ToricError", "TorusChar",
    "UnsupportedDimension", "action_ring", "additive", "adjacent",
    "all_admissible_bases", "all_roots", "annihilator_profile",
    "brute_force_roots", "build_fan", "build_lnd_family", "catalog",
    "character_of", "check_group_law", "check_open_orbit", "cl_grading",
    "classify", "classify_profile", "classify_rays", "commutator",
    "complete_collections", "compose", "coxring", "decide_existence",
    "degree_of", "derivation_str", "distinguish_actions", "emit_actions",
    "enumerate_complete_fans", "enumerate_roots_at", "errors", "example_fan",
    "example_names", "exp_action", "exp_ad", "fan", "fan_svg",
    "find_admissible_basis", "is_wide", "lattice", "lnd_from_root",
    "normal_form", "parse_poly", "poly_str", "positive_system",
    "primitive_pool", "render", "roots", "roots_by_ray", "run_sweep",
    "select_regular_vector", "split_semisimple", "sweep", "torus_conjugate",
    "verification_report", "verify",
]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 84
    assert toric_additive.__all__ == PUBLIC_NAMES
