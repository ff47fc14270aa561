"""Graph potentials of colored trivalent graphs, exactly.

Submodules:

* ``algebra``: Laurent polynomials, rational expressions, and the series
  references ``ts_exp`` and ``pairing_in_var`` (a series is a tuple)
* ``graphs``: colored trivalent graphs, moves, enumeration
* ``potential``: vertex and graph potentials, degenerations
* ``mutation``: elementary transformations with symbolic certificates
* ``periods``: brute-force period sequences (vertex states glued exactly)
* ``tqft``: boundary states in the walk's d!-scaled integers, one record
  for all of them (a Bessel kernel is the state on two legs), the trace
  formula, and the four-point check on the state of the two-vertex graph
* ``cli``: the ``graphpot`` command

Every order, genus and parity argument is held to one rule,
``_record.checked_int``: it must be an ``int`` in range, and anything else,
a bool or a float included, raises ``ValueError`` naming the argument.
Every exact value, a coefficient, a period, a state's term or an edge weight,
is judged by ``_record.scalar``: an ``int``, a bool as its int, or a ``Fraction``.

Symbols are re-exported lazily so that importing the package stays cheap.
The library runs on the standard library alone: a state is dicts of Python
integers, and numpy is loaded only by a two-leg state's ``mats`` view,
which no library path reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "LaurentPoly": "algebra",
    "RationalExpr": "algebra",
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
    "mu_nu_factors": "mutation",
    "mutate": "mutation",
    "PeriodSequence": "periods",
    "periods_of_graph": "periods",
    "BoundaryState": "tqft",
    "bessel": "tqft",
    "t1_kernel": "tqft",
    "flip_operator": "tqft",
    "kernel_compose": "tqft",
    "trace_formula": "tqft",
    "trace_periods": "tqft",
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
