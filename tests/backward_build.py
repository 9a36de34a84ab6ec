"""The backward Pieri recurrence for the series coefficients, kept as the
oracle of the forward build in `jackratio.dist`.

With the definitions of `dist._SeriesSpec`,

    L_0(delta)    = [a_num]_delta C_delta(I) / [a_den]_delta
    L_{k+1}(lam)  = sum_mu pieri(lam -> mu) L_k(mu)
    c[k,t]        = scalar_k / t! * sum_{|tau|=t} [a_tau]_tau L_k(tau)

so L_k(tau) is L_0 applied to the expansion of p_1^k C_tau.  L_k is needed
up to weight K + t_max - k only.  Every step is a Fraction operation, L_0
comes from the closed forms of `special` one partition at a time, and the
Pieri coefficients are the cell-by-cell product, not the telescoped one of
`special.pieri_ratios`: the point is an independent derivation, not speed.

`pieri_coefficients` gives those telescoped ratios as Fractions, for the
tests of `special.pieri_ratios`; `trace_power_product` is the same Pieri
walk on one C_tau, and `rising_factorial` the scalar's Pochhammer symbol,
both over Fractions.
"""

from fractions import Fraction
from math import factorial

from jackratio.partitions import conjugate, normalize, partitions_of
from jackratio.special import gen_pochhammer_exact, jack_at_identity, pieri_ratios


def rising_factorial(a, n):
    """Exact rising factorial a (a+1) ... (a+n-1)."""
    a = Fraction(a)
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


def pieri_coefficients(lam, beta, m):
    """Coefficient of each C_mu in (x_1 + ... + x_m) C_lam, in m variables:
    the ratios of `special.pieri_ratios` as Fractions."""
    lam = normalize(lam)
    alpha = 2 / Fraction(beta)
    if len(lam) > m:
        raise ValueError(f"C_{lam} vanishes in {m} variables")
    return {mu: Fraction(num, den)
            for mu, num, den in pieri_ratios(lam, alpha.numerator, alpha.denominator, m)}


def trace_power_product(k, tau, beta, m):
    """(x_1 + ... + x_m)^k C_tau as {delta: coefficient of C_delta}.

    The weight-k Jack polynomials sum to p_1^k, so the coefficient of C_delta
    is the sum over every kappa of weight k of its coefficient in
    C_kappa C_tau.  It is k applications of `pieri_coefficients`.
    """
    beta = Fraction(beta)
    out = {normalize(tau): Fraction(1)}
    for _ in range(k):
        step = {}
        for lam, c in out.items():
            for mu, g in pieri_coefficients(lam, beta, m).items():
                step[mu] = step.get(mu, Fraction(0)) + c * g
        out = step
    return out


def cellwise_pieri_coefficients(lam, beta, m):
    """pieri(lam -> mu) as the product over every cell of row i and column j:

        1/(|lam|+1) * prod_{c<j} (l + alpha(a+2)) / (l + alpha(a+1))
                    * prod_{r<i} (alpha a + i-r+1) / (alpha a + i-r)
    """
    lam = normalize(lam)
    alpha = 2 / Fraction(beta)
    a, b = alpha.numerator, alpha.denominator
    conj = conjugate(lam)
    size = sum(lam) + 1
    out = {}
    for i in range(1, min(len(lam) + 1, m) + 1):
        row = lam[i - 1] if i <= len(lam) else 0
        if i > 1 and lam[i - 2] == row:
            continue
        j = row + 1
        num, den = 1, size
        for c in range(1, j):
            leg = conj[c - 1] - i
            num *= b * leg + a * (j - c + 1)
            den *= b * leg + a * (j - c)
        for r in range(1, i):
            arm = lam[r - 1] - j
            num *= a * arm + b * (i - r + 1)
            den *= a * arm + b * (i - r)
        out[lam[:i - 1] + (j,) + lam[i:]] = Fraction(num, den)
    return out


def delta_functional(delta, spec):
    """L_0(delta) from the closed forms, for one partition."""
    return (gen_pochhammer_exact(spec.a_num, delta, spec.beta) *
            jack_at_identity(delta, spec.beta, spec.nvars) /
            gen_pochhammer_exact(spec.a_den, delta, spec.beta))


def backward_coeffs(spec, K):
    """{(k, t): c[k,t]} for k <= K and t <= spec.t_max, zeros left out."""
    s = spec
    top = K + s.t_max
    by_weight = [partitions_of(w, s.nvars) for w in range(top + 1)]
    level = {delta: delta_functional(delta, s) for parts in by_weight for delta in parts}
    moves = {lam: cellwise_pieri_coefficients(lam, s.beta, s.nvars)
             for parts in by_weight[:top] for lam in parts}
    tau_terms = [[(tau, v) for tau in by_weight[t]
                  if (v := gen_pochhammer_exact(s.a_tau, tau, s.beta))]
                 for t in range(s.t_max + 1)]
    coeffs = {}
    for k in range(K + 1):
        if k:
            level = {lam: sum((c * level[mu] for mu, c in moves[lam].items()), Fraction(0))
                     for parts in by_weight[:top - k + 1] for lam in parts}
        scalar_k = rising_factorial(s.gamma_arg, k) / (Fraction(s.base) ** k * factorial(k))
        for t, terms in enumerate(tau_terms):
            cell = sum((v * level[tau] for tau, v in terms), Fraction(0))
            if cell:
                coeffs[(k, t)] = cell * (scalar_k / factorial(t))
    return coeffs
