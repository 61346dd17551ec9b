"""Monte Carlo campaign: D_N approaching its infinite-volume limit.

In one dimension the limit is explicit -- twice the harmonic mean of the
rate law -- so the campaign can be checked against a closed form.  Each
replica samples a single environment at the largest size and restricts it
to the smaller tori, which is what makes the successive differences
decrease instead of drowning in replica noise.
"""

from homogenize import (CampaignConfig, DisorderLaw, convergence_study,
                        run_campaign)

law = DisorderLaw.two_point(0.5, 2.0, 0.5)
target = 2.0 / law.mean_inverse()
print(f"two_point(1/2, 2, 1/2): infinite-volume D = {target}")

config = CampaignConfig(law, dimension=1, N_list=(8, 16, 32, 64),
                        replicas=300, master_seed=0)
study = convergence_study(run_campaign(config))

print(f"\n{'N':>4} {'mean D_N':>10} {'95% CI':>10} {'|mean_N - mean_2N|':>20}")
for row in study["table"]:
    diff = row.get("diff_to_next")
    print(f"{row['N']:>4} {row['mean'][0, 0]:>10.5f} "
          f"{row['ci_halfwidth'][0, 0]:>10.5f} "
          f"{'' if diff is None else f'{diff:>20.5f}'}")

last = study["table"][-1]
covered = abs(last["mean"][0, 0] - target) <= last["ci_halfwidth"][0, 0]
print(f"\nlargest torus covers the limit within its CI: {covered}")
print("(smaller tori sit above the limit by a genuine finite-size bias)")
