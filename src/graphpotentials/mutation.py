"""Mutation of graph potentials under the elementary transformation.

Rewiring a non-loop internal edge x changes only the two incident vertex
potentials.  Writing that local part as mu/x + nu*x, the transformed part
mu'/x' + nu'*x' is obtained from it by the cluster-like substitution
x' = mu' / (nu x), which works because mu*nu = mu'*nu' identically in the
slot variables.  The remaining vertices are untouched, so the rest of the
potential must agree term by term.

mu, nu, mu', nu' are extracted here as the x^-1 and x^+1 coefficients of
the local potentials.  Both possible factored forms (the endpoint colors
equal or different) are checked against this extraction in the tests; the
colored-case factor (b+acd)(d+abc)/(abcd) for mu' is forced by the product
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPoly, RationalExpr, rexpr_equal, rexpr_substitute
from .graphs import ColoredGraph, elementary_move
from .potential import PotentialBundle, graph_potential


@dataclass(frozen=True)
class MutationCertificate:
    """Factored data of one mutation, sufficient to re-verify it."""

    edge: str
    colored_case: bool
    slot_vars: tuple[tuple[str, str], tuple[str, str]]
    mu: LaurentPoly
    nu: LaurentPoly
    mu_prime: LaurentPoly
    nu_prime: LaurentPoly
    substitution: RationalExpr  # value of x in terms of the slots and x'
    product_identity_checked: bool


def split_potential(bundle: PotentialBundle, edge_id: str) -> tuple[LaurentPoly, LaurentPoly]:
    """(local, frozen): the two endpoint vertex potentials and the rest."""
    e = bundle.graph.edge(edge_id)
    v1, v2 = e.ends
    if v1 == v2:
        raise ValueError(f"edge {edge_id} is a loop")
    local = bundle.per_vertex[v1] + bundle.per_vertex[v2]
    frozen = bundle.potential - local
    return local, frozen


def _x_coefficients(local: LaurentPoly, x: str) -> tuple[LaurentPoly, LaurentPoly]:
    """Split ``local = mu * x**-1 + nu * x``; x-degrees must be exactly +-1."""
    i = local.vars.index(x)
    rest_vars = tuple(v for v in local.vars if v != x)
    mu: dict[tuple, object] = {}
    nu: dict[tuple, object] = {}
    for e, c in local.terms.items():
        rest = tuple(v for j, v in enumerate(e) if j != i)
        if e[i] == -1:
            mu[rest] = mu.get(rest, 0) + c
        elif e[i] == 1:
            nu[rest] = nu.get(rest, 0) + c
        else:
            raise ValueError(f"local potential has x-degree {e[i]}, expected +-1")
    return LaurentPoly(rest_vars, mu), LaurentPoly(rest_vars, nu)


def _local_on_slots(bundle: PotentialBundle, x: str,
                    slots: tuple[tuple[str, str], tuple[str, str]]) -> tuple[LaurentPoly, LaurentPoly]:
    """(local, frozen) with local restricted to the slot variables and x."""
    local, frozen = split_potential(bundle, x)
    keep = {s for pair in slots for s in pair} | {x}
    return local.drop_vars([v for v in local.vars if v not in keep]), frozen


def _certificate(bundle: PotentialBundle, edge_id: str):
    """(transformed bundle, certificate, (local, frozen) of the source,
    (local, frozen) of the target) from one build of the transformed
    potential and one split of each potential."""
    g = bundle.graph
    v1, v2 = g.edge(edge_id).ends
    moved, slots = elementary_move(g, edge_id)
    bundle2 = graph_potential(moved)
    split = _local_on_slots(bundle, edge_id, slots)
    split2 = _local_on_slots(bundle2, edge_id, slots)
    mu, nu = _x_coefficients(split[0], edge_id)
    mu2, nu2 = _x_coefficients(split2[0], edge_id)

    # x = mu' / (nu x'), inverse of x' = mu' / (nu x); used to rewrite the
    # transformed local potential in the source coordinates
    allv = tuple(sorted(set(mu.vars) | {edge_id}))
    x_value = RationalExpr(mu2.embed(allv),
                           nu.embed(allv) * LaurentPoly.variable(allv, edge_id))
    cert = MutationCertificate(
        edge=edge_id,
        colored_case=g.color(v1) != g.color(v2),
        slot_vars=slots,
        mu=mu,
        nu=nu,
        mu_prime=mu2,
        nu_prime=nu2,
        substitution=x_value,
        product_identity_checked=mu * nu == mu2 * nu2,
    )
    return bundle2, cert, split, split2


def _mutation(bundle: PotentialBundle, edge_id: str):
    """(transformed bundle, certificate, checks)."""
    bundle2, cert, (local, frozen), (local2, frozen2) = _certificate(bundle, edge_id)
    substituted = rexpr_substitute(local, edge_id, cert.substitution)
    checks = {
        "product_identity": cert.product_identity_checked,
        "substitution_identity": rexpr_equal(substituted, RationalExpr.from_poly(local2)),
        "frozen_unchanged": frozen == frozen2,
    }
    return bundle2, cert, checks


def mu_nu_factors(bundle: PotentialBundle, edge_id: str) -> MutationCertificate:
    """Certificate for mutating the bundle at a non-loop internal edge."""
    return _certificate(bundle, edge_id)[1]


def mutation_report(bundle: PotentialBundle, edge_id: str) -> dict[str, bool]:
    """Named symbolic checks that the mutation at an edge is exact.

    * ``product_identity``: mu*nu == mu'*nu' as Laurent polynomials
    * ``substitution_identity``: substituting x = mu'/(nu x') into the
      source local potential reproduces the transformed local potential
    * ``frozen_unchanged``: the other vertex potentials agree term by term
    """
    return _mutation(bundle, edge_id)[2]


def verify_mutation(bundle: PotentialBundle, edge_id: str) -> bool:
    return all(mutation_report(bundle, edge_id).values())


def mutate(bundle: PotentialBundle, edge_id: str) -> tuple[PotentialBundle, MutationCertificate]:
    """Transformed bundle plus its certificate; raises if verification fails.

    The transformed potential is built once and serves the certificate and
    every check of :func:`mutation_report`.
    """
    bundle2, cert, report = _mutation(bundle, edge_id)
    if not all(report.values()):
        failed = sorted(k for k, v in report.items() if not v)
        raise ArithmeticError(f"mutation at {edge_id!r} failed checks: {', '.join(failed)}")
    return bundle2, cert
