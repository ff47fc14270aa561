"""Graph potentials of colored trivalent graphs, exactly.

Submodules:

* ``algebra``: Laurent polynomials, rational expressions, truncated series
* ``graphs``: colored trivalent graphs, moves, enumeration
* ``potential``: vertex and graph potentials, degenerations
* ``mutation``: elementary transformations with symbolic certificates
* ``periods``: brute-force period sequences (vertex states glued exactly)
* ``tqft``: Bessel kernels and boundary states in the walk's d!-scaled
  integers, the trace formula, and the four-point check on the state of
  the two-vertex graph
* ``cli``: the ``graphpot`` command

Symbols are re-exported lazily so that importing the package stays cheap.
The library runs on the standard library alone: kernels and boundary states
are dicts of Python integers, and numpy is loaded only by a kernel's
``mats`` view, which no library path reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "LaurentPoly": "algebra",
    "RationalExpr": "algebra",
    "TSeries": "algebra",
    "ts_exp": "algebra",
    "pairing_in_var": "algebra",
    "rexpr_equal": "algebra",
    "rexpr_substitute": "algebra",
    "ColoredGraph": "graphs",
    "validate": "graphs",
    "genus": "graphs",
    "homology_ranks_f2": "graphs",
    "coloring_boundary_move": "graphs",
    "normalize_coloring": "graphs",
    "elementary_transformation": "graphs",
    "mgamma_member": "graphs",
    "enumerate_trivalent": "graphs",
    "theta_graph": "graphs",
    "dumbbell_graph": "graphs",
    "necklace_graph": "graphs",
    "graph_to_json": "graphs",
    "graph_from_json": "graphs",
    "PotentialBundle": "potential",
    "vertex_potential": "potential",
    "graph_potential": "potential",
    "quadrivalent_potential": "potential",
    "grassmannian_limit": "potential",
    "MutationCertificate": "mutation",
    "local_potential": "mutation",
    "mu_nu_factors": "mutation",
    "verify_mutation": "mutation",
    "mutate": "mutation",
    "PeriodSequence": "periods",
    "periods_bruteforce": "periods",
    "periods_of_graph": "periods",
    "KernelMatrix": "tqft",
    "BoundaryState": "tqft",
    "bessel": "tqft",
    "t1_kernel": "tqft",
    "flip_operator": "tqft",
    "kernel_compose": "tqft",
    "trace_formula": "tqft",
    "k_state": "tqft",
    "glue": "tqft",
    "necklace_state": "tqft",
    "wdvv_check": "tqft",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
