"""Slow reference routes that only tests use.

Dense matrix products and identities over F_q, the automorphism image by
square-and-multiply in the quotient algebra, and the action matrix computed
from those RatFun-coefficient images. None of them shares code with
algebra.monomial_images, which galois.action_matrix reads.
"""

from towerdiff.algebra import AlgebraElement, alg_mul, alg_pow
from towerdiff.basis import enumerate_basis, gamma_indices, lambda_rho
from towerdiff.errors import ClosureFailure
from towerdiff.poly import Poly, RatFun
from towerdiff.tower import analyze


def matrix_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), start=a[0][0].spec.zero()) for j in range(n)]
        for i in range(n)
    ]


def identity_matrix(spec, n):
    zero, one = spec.zero(), spec.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def square_and_multiply_image(d, a, h):
    """sigma(a) from the images of the y_i raised by alg_pow, multiplied by alg_mul."""
    spec = d.field
    images = []
    for i, step in enumerate(d.steps):
        y = AlgebraElement.monomial(spec, [0] * i + [1])
        if step.kind == "kummer":
            images.append(y.scale(RatFun.constant(spec, spec.nth_root_of_unity(step.n) ** h[i])))
        else:
            images.append(y + h[i])
    out = AlgebraElement.zero(spec)
    for exps, coeff in a.terms.items():
        term = AlgebraElement.from_ratfun(coeff)
        for i, e in enumerate(exps):
            term = alg_mul(d.steps, term, alg_pow(d.steps, images[i], e))
        out = out + term
    return out


def reference_action_matrix(d, h):
    """The action matrix with RatFun arithmetic throughout.

    Each monomial image comes from square_and_multiply_image, its
    coefficients must be constant rational functions, and the pole shift
    prod P^(lambda_mu2 - lambda_mu) is multiplied out for every image term.
    """
    spec = d.field
    profile = analyze(d)
    basis = enumerate_basis(d, profile)
    index = {(b.mu, b.nu): i for i, b in enumerate(basis)}
    lam = {
        mu: {P: lambda_rho(tp, mu)[0] for P, tp in profile.items() if not P.is_infinite}
        for mu in gamma_indices(d)
    }
    m = [[spec.zero() for _ in basis] for _ in basis]
    images = {}
    for j, b in enumerate(basis):
        if b.mu not in images:
            images[b.mu] = square_and_multiply_image(d, AlgebraElement.monomial(spec, b.mu), h)
        for exps, coeff in images[b.mu].terms.items():
            if coeff.num.degree > 0 or coeff.den.degree > 0:
                raise ClosureFailure("automorphism image has a non-constant coefficient")
            c0 = coeff.num.leading() / coeff.den.leading()
            mu2 = tuple(exps) + (0,) * (d.r - len(exps))
            if mu2 not in lam:
                raise ClosureFailure(f"image index {mu2} outside the basis index set")
            hpoly = Poly.one(spec)
            for P, l2 in lam[mu2].items():
                if l2 < lam[b.mu][P]:
                    raise ClosureFailure(f"lambda drops at {P} for {b.mu} -> {mu2}")
                hpoly = hpoly * P.poly ** (l2 - lam[b.mu][P])
            for l, bl in enumerate(hpoly.coeffs):
                if not bl.is_zero():
                    target = index.get((mu2, b.nu + l))
                    if target is None:
                        raise ClosureFailure(f"image of {b.pretty()} leaves the basis")
                    m[target][j] = m[target][j] + c0 * bl
    return m
