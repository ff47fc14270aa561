"""Mutation of graph potentials under the elementary transformation.

Rewiring a non-loop internal edge x changes only the two incident vertex
potentials.  Writing that local part as mu/x + nu*x, the transformed part
mu'/x' + nu'*x' is obtained from it by the cluster-like substitution
x' = mu' / (nu x), which works because mu*nu = mu'*nu' identically in the
slot variables.  The remaining vertices are untouched, so their potentials
must agree vertex by vertex.

mu, nu, mu', nu' are extracted here as the x^-1 and x^+1 coefficients of
the local potentials.  Both possible factored forms (the endpoint colors
equal or different) are checked against this extraction in the tests; the
colored-case factor (b+acd)(d+abc)/(abcd) for mu' is forced by the product
identity.

Once both local potentials split exactly as mu/x + nu*x and
mu'/x' + nu'*x', and nu and mu' are nonzero, the substitution check and the
product identity are the same statement:

* substituting x = mu'/(nu x') into mu/x + nu*x gives mu*nu*x'/mu' + mu'/x';
* that equals mu'/x' + nu'*x' exactly when mu*nu = mu'*nu';
* so ``substitution_identity`` holds if and only if ``product_identity`` does.

:func:`mutate` therefore certifies a move by the splits, the product
identity and the frozen part.  :func:`mutation_report`, behind
``graphpot verify mutation``, re-verifies it independently by the full
symbolic substitution.  :func:`coloring_report`, behind ``graphpot verify
coloring``, checks the other move: a coloring boundary move inverts the edge
variable.  Both moves rebuild the edge's endpoint potentials alone, and
their ``frozen_unchanged`` is a diff of the two graphs, with no full slot
table or validation (:func:`~graphpotentials.potential.moved_bundle`).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LaurentPoly, RationalExpr, rexpr_equal, rexpr_substitute, sum_over
from .graphs import coloring_boundary_move, elementary_move
from .potential import PotentialBundle, moved_bundle


class MutationCertificate(NamedTuple):
    """Factored data of one mutation, sufficient to re-verify it."""

    edge: str
    colored_case: bool
    slot_vars: tuple[tuple[str, str], tuple[str, str]]
    mu: LaurentPoly
    nu: LaurentPoly
    mu_prime: LaurentPoly
    nu_prime: LaurentPoly
    product_identity_checked: bool

    @property
    def substitution(self) -> RationalExpr:
        """Value of x in terms of the slots and x': x = mu' / (nu x'), the
        inverse of x' = mu' / (nu x)."""
        allv = tuple(sorted(set(self.nu.vars) | {self.edge}))
        return RationalExpr(self.mu_prime.embed(allv),
                            self.nu.embed(allv) * LaurentPoly.variable(allv, self.edge))


def local_potential(bundle: PotentialBundle, edge_id: str) -> LaurentPoly:
    """The sum of the two endpoint potentials of a non-loop edge, over their
    slot variables and the edge variable."""
    v1, v2 = ends = bundle.graph.edge(edge_id).ends
    if v1 == v2:
        raise ValueError(f"edge {edge_id} is a loop")
    return _local(bundle, ends)


def _local(bundle: PotentialBundle, ends: tuple[str, str]) -> LaurentPoly:
    """The sum of the potentials at ``ends``, the two ends of a non-loop edge."""
    w1, w2 = (bundle.per_vertex[v] for v in ends)
    return sum_over(tuple(sorted(set(w1.vars) | set(w2.vars))), (w1, w2))


def _x_coefficients(local: LaurentPoly, x: str) -> tuple[LaurentPoly, LaurentPoly]:
    """Split ``local = mu * x**-1 + nu * x``; x-degrees must be exactly +-1."""
    parts = local.by_degree(x)
    for k in parts:
        if k not in (-1, 1):
            raise ValueError(f"local potential has x-degree {k}, expected +-1")
    zero = LaurentPoly.zero(tuple(v for v in local.vars if v != x))
    return parts.get(-1, zero), parts.get(1, zero)


def _certificate(bundle: PotentialBundle, edge_id: str):
    """(transformed bundle, certificate, frozen_unchanged, local potentials of
    the source and of the target) from one build of the transformed bundle."""
    g = bundle.graph
    v1, v2 = ends = g.edge(edge_id).ends
    moved, slots = elementary_move(g, edge_id)  # refuses a loop
    bundle2, frozen = moved_bundle(bundle, moved, ends)
    local, local2 = _local(bundle, ends), _local(bundle2, ends)
    mu, nu = _x_coefficients(local, edge_id)
    mu2, nu2 = _x_coefficients(local2, edge_id)
    cert = MutationCertificate(
        edge=edge_id,
        colored_case=g.color(v1) != g.color(v2),
        slot_vars=slots,
        mu=mu,
        nu=nu,
        mu_prime=mu2,
        nu_prime=nu2,
        product_identity_checked=mu * nu == mu2 * nu2,
    )
    return bundle2, cert, frozen, local, local2


def mu_nu_factors(bundle: PotentialBundle, edge_id: str) -> MutationCertificate:
    """Certificate for mutating the bundle at a non-loop internal edge."""
    return _certificate(bundle, edge_id)[1]


def mutation_report(bundle: PotentialBundle, edge_id: str) -> dict[str, bool]:
    """Named symbolic checks that the mutation at an edge is exact.

    * ``product_identity``: mu*nu == mu'*nu' as Laurent polynomials
    * ``substitution_identity``: substituting x = mu'/(nu x') into the
      source local potential reproduces the transformed local potential
    * ``frozen_unchanged``: every other vertex potential is unchanged

    This is the independent re-verification of :func:`mutate`: it runs the
    full substitution that :func:`mutate` replaces by the product identity.
    """
    _, cert, frozen, local, local2 = _certificate(bundle, edge_id)
    substituted = rexpr_substitute(local, edge_id, cert.substitution)
    return {
        "product_identity": cert.product_identity_checked,
        "substitution_identity": rexpr_equal(substituted, RationalExpr.from_poly(local2)),
        "frozen_unchanged": frozen,
    }


def coloring_report(bundle: PotentialBundle, edge_id: str) -> dict[str, bool]:
    """Named checks that the coloring boundary move at an edge, loops
    included, inverts the edge variable and nothing else in the potential.

    * ``frozen_unchanged``: every other vertex potential is unchanged
    * ``ends_invert_edge``: each endpoint potential has the edge inverted
    """
    ends = bundle.graph.edge(edge_id).ends
    moved, frozen = moved_bundle(bundle, coloring_boundary_move(bundle.graph, edge_id), ends)
    inverted = all(moved.per_vertex[v] == bundle.per_vertex[v].negate_var(edge_id) for v in ends)
    return {"frozen_unchanged": frozen, "ends_invert_edge": inverted}


def verify_mutation(bundle: PotentialBundle, edge_id: str) -> bool:
    return all(mutation_report(bundle, edge_id).values())


def mutate(bundle: PotentialBundle, edge_id: str) -> tuple[PotentialBundle, MutationCertificate]:
    """Transformed bundle plus its certificate; raises if verification fails.

    The move is certified without the symbolic substitution:

    * both local potentials split exactly as mu/x + nu*x and mu'/x' + nu'*x'
      (the extraction raises ``ValueError`` otherwise), and nu, mu' are
      nonzero, so x' = mu'/(nu x) is defined;
    * substituting x = mu'/(nu x') into mu/x + nu*x gives
      mu*nu*x'/mu' + mu'/x', which equals mu'/x' + nu'*x' exactly when
      mu*nu = mu'*nu';
    * so once both splits hold, ``substitution_identity`` of
      :func:`mutation_report` is equivalent to ``product_identity``, which
      is checked here together with ``frozen_unchanged``.

    The transformed bundle is built once and serves the certificate and
    every check.  A failed check raises ``ArithmeticError`` naming it.
    """
    bundle2, cert, frozen, _, _ = _certificate(bundle, edge_id)
    checks = {
        "nu_nonzero": not cert.nu.is_zero(),
        "mu_prime_nonzero": not cert.mu_prime.is_zero(),
        "product_identity": cert.product_identity_checked,
        "frozen_unchanged": frozen,
    }
    failed = sorted(k for k, v in checks.items() if not v)
    if failed:
        raise ArithmeticError(f"mutation at {edge_id!r} failed checks: {', '.join(failed)}")
    return bundle2, cert
