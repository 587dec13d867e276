"""The §VI proposed SRAM-based PR environment, exercised end to end.

Shows the three mechanisms of the proposal:

1. activation streams from the QDR SRAM at the paper's theoretical
   1237.5 MB/s — almost double the Fig. 2 system's 790 MB/s ceiling;
2. the bitstream decompressor multiplies the effective rate further;
3. the PS scheduler pre-loads the *next* bitstream while the current
   accelerator computes, hiding the DRAM-bound staging entirely.

Run:  python examples/proposed_sram_pr.py
"""

from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp
from repro.sram_pr import SramPrSystem, THEORETICAL_THROUGHPUT_MB_S


def basic_activation(system: SramPrSystem) -> None:
    print("1) plain activation from SRAM")
    result = system.reconfigure("RP1", Aes128Asp([1, 2, 3, 4]), compress=False)
    print(
        f"   preload {result.preload_us:7.1f} us, "
        f"activate {result.activation_latency_us:7.1f} us "
        f"-> {result.throughput_mb_s:7.1f} MB/s "
        f"(theory {THEORETICAL_THROUGHPUT_MB_S:.1f}), "
        f"CRC {'valid' if result.crc_valid else 'NOT VALID'}"
    )


def compressed_activation(system: SramPrSystem) -> None:
    print("\n2) compressed image through the hardware decompressor")
    result = system.reconfigure("RP2", FirFilterAsp([1, 2, 1]), compress=True)
    activation = result.activation
    print(
        f"   SRAM holds {activation.sram_words * 4 / 1024:.0f} KiB "
        f"(ratio {activation.compression_ratio:.2f}) -> effective "
        f"{result.throughput_mb_s:7.1f} MB/s (ICAP hard-macro bound: 2200)"
    )


def preload_hiding(system: SramPrSystem) -> None:
    print("\n3) PS-scheduler preloading hidden behind ASP compute")
    compute_ns = 700_000.0
    asps = [MatMulAsp(2), FirFilterAsp([5, 5]), Aes128Asp([4, 4, 4, 4])]
    pendings = [system.prepare_image("RP3", asp, compress=False) for asp in asps]

    timeline = []

    def driver():
        system.scheduler.enqueue(pendings[0])
        yield system.sim.process(system.scheduler.preload_next())
        for index in range(len(pendings)):
            t0 = system.sim.now
            activation = yield system.sim.process(system.pr_controller.activate())
            timeline.append((f"activate #{index}", t0, system.sim.now))
            compute = system.sim.timeout(compute_ns)
            if index + 1 < len(pendings):
                system.scheduler.enqueue(pendings[index + 1])
                t0 = system.sim.now
                preload = system.sim.process(system.scheduler.preload_next())
                yield compute
                yield preload
                timeline.append((f"preload #{index + 1} (hidden)", t0, system.sim.now))
            else:
                yield compute
            assert activation.config_ok

    start = system.sim.now
    system.sim.run_until(system.sim.process(driver()))
    makespan_us = (system.sim.now - start) / 1e3

    for label, t0, t1 in timeline:
        print(f"   {label:<22} {(t0 - start) / 1e3:8.1f} -> {(t1 - start) / 1e3:8.1f} us")
    hidden_us = sum(
        (t1 - t0) / 1e3 for label, t0, t1 in timeline if "hidden" in label
    )
    print(
        f"   makespan {makespan_us:.1f} us; {hidden_us:.1f} us of staging "
        f"fully overlapped with compute"
    )


def main() -> None:
    system = SramPrSystem()
    basic_activation(system)
    compressed_activation(system)
    preload_hiding(system)


if __name__ == "__main__":
    main()
