"""Which locality properties survive in models that violate CHSH?

Three different locality notions are checked for each model:
  screening      -- given the hidden angle, the two wings are independent
  lambda-independence -- the hidden-angle distribution ignores the settings
  signal locality -- each wing's marginal ignores the distant setting
A model can violate the CHSH bound while keeping screening and signal
locality; what it must give up is lambda-independence.
"""

import belllab as bl

SETTINGS = bl.tsirelson_settings()
a, b = SETTINGS[0], SETTINGS[2]
rng = bl.RngStream(0)

print(f"{'model':16s} {'screening':>10s} {'lambda-dep (TV)':>16s} {'marginal P(A=+1)':>17s}")
for i, model in enumerate(
    (bl.LocalBaselineModel(), bl.DeltaMixtureModel(), bl.HallModel())
):
    screen = bl.screening_residual(model, a, b, 200_000, rng.substream(i))
    dep = bl.lambda_independence_residual(model, (a, b), (a, SETTINGS[3]))
    marg = model.joint_dist(a, b).marginal_1()[0]
    print(f"{model.name:16s} {screen.value:10.4f} {dep:16.4f} {marg:17.4f}")

pr = bl.PRBoxModel(SETTINGS)
screen = bl.screening_residual(pr, a, b, 200_000, rng.substream(9))
marg = pr.joint_dist(a, b).marginal_1()[0]
print(f"{pr.name:16s} {screen.value:10.4f} {'(no mediator)':>16s} {marg:17.4f}")
print()

print("Reading the table:")
print(" - screening: conditioned on the hidden angle, outcomes factorize.  The")
print("   residual is |n++ n-- - n+- n-+| / t^2 per bin of t runs, from exact")
print("   counts.  It is exactly 0 for the delta mixture and Hall, whose bins")
print("   fix an outcome (an atom the side whose axis it is, a segment both), and")
print("   sampling noise of order 0.01 for the baseline, whose 64 equal lambda")
print("   bins fix neither.  The mediator-free box cannot screen; its residual")
print("   is the raw correlation 0.25.")
print(" - lambda-dependence is the price of violating CHSH: the baseline has")
print("   TV = 0 and stays under the bound; the quantum-reproducing models")
print("   have TV > 0 (0.5 for the atom mixture at these settings).")
print(" - all marginals are 1/2 regardless of the distant setting: none of")
print("   these models allows signalling.")
