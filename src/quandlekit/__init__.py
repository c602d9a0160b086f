"""Finite quandle families and colouring invariants of handlebody-links
and spatial graphs."""

from .tables import (
    AxiomReport,
    GroupTable,
    OperationTable,
    ParseError,
    alexander_quandle,
    conjugation_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    dual_operation,
    generated_subalgebra,
    hom_count,
    klein_group,
    parse_group,
    parse_table,
    serialize_group,
    serialize_table,
    standard_quandle,
    symmetric_group,
    takasaki_quandle,
    trivial_quandle,
    validate_axioms,
)
from .systems import (
    AxetData,
    SystemData,
    associated_quandle,
    axet_to_system,
    check_lemma_for,
    g_family_system,
    gamma_from_oplus,
    general_product_quandle,
    parse_axet,
    parse_system,
    quandle_system,
    search_involutions,
    serialize_axet,
    serialize_system,
    validate_axet,
    validate_family,
    validate_involution,
)
from .diagrams import (
    Crossing,
    Diagram,
    Edge,
    Vertex,
    compute_edges,
    delete_edges,
    parse_diagram,
    serialize_diagram,
    validate_diagram,
)
from .coloring import (
    Colouring,
    count_colourings,
    enumerate_colourings,
    verify_colouring,
)
from .moves import (
    InapplicableMoveError,
    MoveResult,
    MoveSpec,
    ScopeError,
    applicable_moves,
    apply_move,
    fuzz_invariance,
    random_diagram,
)
from .invariants import (
    GroupPresentation,
    LinkingMatrix,
    group_hom_count,
    hom_fingerprint,
    kauffman_constituents,
    kauffman_summary,
    linking_matrix,
    parse_presentation,
    serialize_presentation,
    wirtinger_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
