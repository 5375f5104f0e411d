"""Robustness study: congestion control over a lossy (wireless-style) path.

The scenario PCC uses to motivate itself, and the paper's Metric VI: a
sender on an uncongested path suffering random non-congestion loss. We
sweep the loss rate for TCP Reno, Cubic, Scalable, Robust-AIMD and the
PCC-like protocol in the fluid model, then replay the story at packet
level with 0.5% uniform random wire loss.

Run: ``python examples/lossy_link_robustness.py``
"""

from __future__ import annotations

from repro.core.metrics import diverges_under_loss, estimate_robustness
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols import presets
from repro.protocols.slow_start import SlowStartWrapper

CANDIDATES = {
    "Reno": presets.reno,
    "Cubic": presets.cubic,
    "Scalable": presets.scalable_mimd,
    "Robust-AIMD": presets.robust_aimd_paper,
    "PCC-like": presets.pcc_like,
}


def fluid_sweep() -> None:
    print("Fluid model: does the window keep growing under constant loss?")
    rates = (0.001, 0.005, 0.009, 0.02, 0.05)
    header = "  protocol      " + "".join(f"{r:>8.1%}" for r in rates)
    print(header)
    for name, factory in CANDIDATES.items():
        verdicts = [
            "yes" if diverges_under_loss(factory(), rate, horizon=1500) else "no"
            for rate in rates
        ]
        print("  " + name.ljust(14) + "".join(v.rjust(8) for v in verdicts))

    print("\nMeasured robustness alpha (bisection, Metric VI):")
    for name, factory in CANDIDATES.items():
        alpha = estimate_robustness(factory(), tolerance=2e-3).score
        print(f"  {name:>12}: {alpha:.4f}")


def packet_level_run() -> None:
    print("\nPacket level: 20 Mbps path with 0.5% random wire loss, 25 s:")
    for name, factory in CANDIDATES.items():
        scenario = PacketScenario.from_mbps(
            20, 42, 100, [SlowStartWrapper(factory())], duration=25.0,
            random_loss_rate=0.005, seed=11,
        )
        result = run_scenario(scenario)
        print(f"  {name:>12}: goodput {result.throughputs_mbps()[0]:5.2f} Mbps "
              f"({result.utilization():.0%} of link)")


def main() -> None:
    fluid_sweep()
    packet_level_run()
    print(
        "\nReading: every pure loss-signal protocol (Reno/Cubic/Scalable) is "
        "0-robust —\nany persistent loss pins it near the window floor. "
        "Robust-AIMD tolerates loss up\nto its epsilon and the PCC-like "
        "protocol up to its utility tolerance, exactly\nthe Table 1 "
        "robustness column."
    )


if __name__ == "__main__":
    main()
