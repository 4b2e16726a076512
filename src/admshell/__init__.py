"""Extended affine Weyl groups, admissible sets, and shellability checking."""

from .errors import InputError, PropertyViolation
from .rootdata import AffineRoot, RootDatum, build_root_datum
from .weyl import WeylElement, WeylGroup
from .affine import (AcutePresentation, AffineElement, acute_presentations,
                     acute_presentation_K, affine_reflection, affine_word,
                     bruhat_leq, bruhat_leq_via_wt, covers_down, inversions,
                     length_zero_rep, simple_reflection)
from .qbg import QuantumBruhatGraph
from .admissible import (AdmissiblePoset, adm_membership, build_admissible,
                         compute_sigma, coxeter_subset, top_two_layer_report)
from .labeling import (LabelOrder, build_label_order, label_edges,
                       make_classifier, repair_step, subsystem_positive)
from .shellcheck import LabeledPoset

__all__ = [
    "AcutePresentation", "AdmissiblePoset", "AffineElement", "AffineRoot",
    "InputError", "LabelOrder", "LabeledPoset", "PropertyViolation",
    "QuantumBruhatGraph", "RootDatum", "WeylElement", "WeylGroup",
    "acute_presentation_K", "acute_presentations", "adm_membership",
    "affine_reflection", "affine_word", "bruhat_leq", "bruhat_leq_via_wt",
    "build_admissible", "build_label_order", "build_root_datum",
    "compute_sigma", "covers_down", "coxeter_subset", "inversions",
    "label_edges", "length_zero_rep", "make_classifier", "repair_step",
    "simple_reflection", "subsystem_positive", "top_two_layer_report",
]
