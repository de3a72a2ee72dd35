"""The kinship spectrum against its Marchenko-Pastur limit.

Builds standardized genotype designs at several aspect ratios a = n/N and
prints the sup-distance between the empirical spectral distribution and
the limiting law, plus a coarse text histogram of the bulk.
"""

import numpy as np

from specherit import MPLaw, esd, kinship, mp_cdf, mp_check, mp_integrate, replicate_rng
from specherit.spectral import eigenvalues, standardize
from specherit.synthcohort import sample_allele_frequencies, sample_genotypes

# --- convergence of the empirical spectrum ---------------------------------

for n, N in [(400, 4000), (600, 1200), (500, 500)]:
    result = mp_check(n, N, dist="genotype", seed=11)
    print(f"n={n:4d} N={N:5d} (a={result['a']:.2f}): "
          f"sup|ESD - MP| = {result['ks_distance']:.4f}  pass={result['pass']}")

# --- the law itself ---------------------------------------------------------

law = MPLaw(0.5)
print(f"\nMP(a=0.5): support [{law.a_minus:.4f}, {law.a_plus:.4f}], "
      f"atom at zero {law.mass_at_zero}")
print(f"moments: mass {mp_integrate(law, lambda l: np.ones_like(l)):.9f}, "
      f"mean {mp_integrate(law, lambda l: l):.9f}, "
      f"second {mp_integrate(law, lambda l: l * l):.9f} (exact: 1, 1, 1.5)")

law_wide = MPLaw(2.0)
print(f"MP(a=2.0): atom at zero = {law_wide.mass_at_zero} "
      "(more individuals than markers leaves a rank deficit)")

# --- text histogram of one realized spectrum --------------------------------

rng = replicate_rng(99)
n, N = 500, 1000
W = sample_genotypes(n, sample_allele_frequencies(N, 0.1, 0.5, rng), rng)
lambdas = eigenvalues(kinship(standardize(W).Z))  # no eigenvectors: the histogram needs none
edges = np.linspace(0.0, law.a_plus + 0.2, 25)
counts, _ = np.histogram(lambdas, bins=edges)
density = counts / counts.sum() / np.diff(edges)
print("\neigenvalue histogram (n=500, N=1000) vs MP density:")
for lo, hi, d in zip(edges[:-1], edges[1:], density):
    mid = 0.5 * (lo + hi)
    mp_mass = (mp_cdf(law, hi) - mp_cdf(law, lo)) / (hi - lo)
    bar = "#" * int(round(40 * d))
    print(f"  [{lo:4.2f},{hi:4.2f})  {bar:<42s} emp {d:5.3f}  mp {mp_mass:5.3f}")

print(f"\nsanity: ESD(1.0) = {esd(lambdas, 1.0):.4f}  "
      f"MP CDF(1.0) = {mp_cdf(law, 1.0):.4f}")
