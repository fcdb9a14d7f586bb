"""The recovery-curve comparison: what each framework's accuracy does when a
client exercises its right to be forgotten mid-run.

Runs all five frameworks on the same data and seed, schedules one client to
quit two-thirds of the way through, and prints the accuracy timeline around
the event (t < 0 before the request, t = 0 immediately after).

Expected shape: HDUS and SISA-A barely move across t = 0 (they just drop one
ensemble member), DSGD crashes to chance and retrains, FedUnl dips and then
recovers through distillation.
"""

from hdus.harness import ExperimentConfig, unlearn_demo

cfg = ExperimentConfig(rounds=18, unlearn_round=12, unlearn_client=4,
                       blob_samples_per_class=200)
reports = unlearn_demo(cfg)

window = range(8, 18)
print("round  " + "".join(f"{fw:>9}" for fw in [r.config.framework for r in reports]))
for r in window:
    row = ""
    for rep in reports:
        row += f"{rep.repeats[0].mean_accuracies()[r]:9.3f}"
    t = r - cfg.unlearn_round
    marker = "  <- client 4 quits" if t == 0 else ""
    print(f"t={t:+3d}  {row}{marker}")
