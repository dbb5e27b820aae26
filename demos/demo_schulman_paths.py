"""Kicked-polarization histories: Malus' law from heavy-tailed kicks.

A photon's polarization performs a Cauchy random walk between the angle it
was prepared at and an angle family enforced by the next polarizer.  This
script shows (1) the winding-sum identity behind the outcome weights,
(2) Malus' law emerging as the kick width shrinks, and (3) what the
boundary-conditioned paths look like: one big kick does the turning.
"""

import math

from scipy import stats

import belllab as bl

print("1. Winding-sum identity: sum_n 1/(d + n*pi)^2 = 1/sin(d)^2")
for d in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
    print(f"   d = {d/math.pi:.3f}*pi:  truncated sum = {bl.truncated_family_sum(d):.12f}"
          f"   closed form = {1 / math.sin(d) ** 2:.12f}")
print()

print("2. Transmission probability vs. Malus' law (d = pi/8):")
d = math.pi / 8
for gamma in (0.3, 0.1, 0.01, 1e-3, 1e-4):
    p = bl.single_photon_outcome_prob(0.0, d, gamma)
    print(f"   gamma = {gamma:<7g} p(+1) = {p:.6f}")
print(f"   gamma -> 0     cos^2(d) = {math.cos(d)**2:.6f}")
print()

print("3. Boundary-conditioned paths (gamma = 1e-3, 100 steps, pi/8 apart):")
spec = bl.PathSpec(theta1=bl.PolAngle(0.0), theta2=bl.PolAngle(math.pi / 8),
                   gamma=1e-3, steps=100)
bridges = bl.sample_bridges(spec, 20_000, bl.RngStream(1))
kicks = bl.dominant_kick_stats(bridges)
share, pred = kicks.net_dominance_share, bl.expected_net_dominance(spec)
print(f"   paths whose largest kick covers > 99% of the net rotation: {share:.1%}"
      f" (exact expectation {pred.value:.1%})")
chi2_p = stats.chisquare(kicks.kick_time_histogram).pvalue
print(f"   kick times uniform over the flight (chi^2 p = {chi2_p:.2f}):")
hist = kicks.kick_time_histogram.reshape(10, -1).sum(axis=1)
print("   " + " ".join(f"{h:5d}" for h in hist))
print()
print("Heavy tails make the walk jump rather than diffuse: the polarization")
print("stays put, turns once -- at a uniformly random moment -- and stays put")
print("again.  The 'collapse' is just the path's one big kick.")
