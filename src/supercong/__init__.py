"""supercong: exact verification of q-supercongruences and their p-adic limits.

The package has three verification lanes:

* symbolic lane (``qobjects``, ``engine``): exact integer arithmetic, one
  cyclotomic factor Phi_m^e of the modulus at a time, with a free
  parameter a handled by terminating specializations at a = q^(+-n) and
  by integer coefficients in Z[a] on the cyclotomic part; failures are
  classified by an independent oracle over Z[q] and Z[a][q], with
  witnesses over Q and Q(a) (``polys``, ``paramfield``);
* p-adic lane (``padic``): exact rational truncated sums compared against
  Morita Gamma values modulo prime powers;
* numeric lane (``analytic``): double-precision confirmation of the
  infinite summation identities the congruences are truncations of.

Cases are data: ``registry`` ships a JSON catalog of every checked
statement, and ``harness``/``cli`` schedule, cache and report runs.
"""

__version__ = "0.1.0"
