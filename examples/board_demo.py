"""The paper's bench flow, end to end (Figs. 3 and 4).

Reproduces the physical test procedure through the test application of
:mod:`repro.ps.firmware`: two partial bitstreams live on the SD card;
the board boots and stages them in DRAM; the 8 slide switches select the
over-clocking frequency; the push buttons start the ICAP operation with
one of the two bitstreams; results appear on the OLED.

Run:  python examples/board_demo.py
"""

from repro.board import DEFAULT_FREQUENCY_TABLE
from repro.core import PdrSystem
from repro.fabric import Aes128Asp, FirFilterAsp
from repro.ps import ZedboardTestApp


def main() -> None:
    system = PdrSystem()
    app = ZedboardTestApp(system)
    app.provision_image("partial_fir", "RP1", FirFilterAsp([1, 2, 3, 2, 1]))
    app.provision_image("partial_aes", "RP1", Aes128Asp([9, 8, 7, 6]))
    # As in the test firmware: BTNL loads bitstream A, BTNR bitstream B,
    # each at the switch-selected clock.
    app.bind_button("BTNL", "partial_fir")
    app.bind_button("BTNR", "partial_aes")

    print("booting from SD card ...")
    app.boot()
    print(
        f"  staged {', '.join(app.image_names())} in DRAM, "
        f"t = {system.sim.now_us / 1e3:.1f} ms"
    )

    for code in (0, 3, 5):  # 100 MHz, 200 MHz, 280 MHz
        print(
            f"\nsetting switches to {code:#04x} "
            f"({DEFAULT_FREQUENCY_TABLE[code]:g} MHz) and pressing BTNL/BTNR"
        )
        system.switches.set_code(code)
        for button in ("BTNL", "BTNR"):
            system.buttons.press(button)
            load = app.load_log[-1]
            print(
                f"\n  [{load['image']} @ {load['freq_mhz']:g} MHz] "
                f"latency {load['latency_us']:.1f} us, "
                f"critical path: {load['critical_path']}"
            )
            print("\n".join("  " + line for line in system.oled.render().splitlines()))

    print(
        f"\ntotal reconfigurations: {app.loads_performed}, "
        f"all CRC-valid: {all(r.crc_valid for r in system.results)}"
    )


if __name__ == "__main__":
    main()
