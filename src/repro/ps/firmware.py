"""The ZedBoard test application (the paper's C program, §IV).

"The application software used to test the system is loaded on an SD
memory card.  The ZedBoard is booted from the SD card.  The memory card
also contains two bitstreams ... We use the ZedBoard's switches to set
the over-clocking frequency.  Moreover, we use two push-buttons to start
the ICAP operations and load one of the two bitstreams.  The testing
results are displayed on the OLED screen."

:class:`ZedboardTestApp` wires exactly that flow onto a
:class:`~repro.core.pdr_system.PdrSystem`: boot stages the SD images into
DRAM (timed), the switch bank selects the frequency, the buttons trigger
loads, and every result lands on the OLED and in the result log.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bitstream import Bitstream

__all__ = ["ZedboardTestApp"]

#: Buttons used by the paper's test setup: left loads image A, right B.
BUTTON_IMAGE_A = "BTNL"
BUTTON_IMAGE_B = "BTNR"


class ZedboardTestApp:
    """Boot-from-SD test firmware driving the over-clocked PDR system."""

    def __init__(self, system):
        self.system = system
        self._images: Dict[str, Bitstream] = {}
        self._staged: Dict[str, int] = {}
        self._button_map: Dict[str, str] = {}
        self.booted = False
        self.loads_performed = 0
        #: One entry per button-triggered load: which image went where and
        #: which device bottlenecked the reconfiguration (the OLED only
        #: shows the last result; campaign tooling reads this log).
        self.load_log: List[Dict[str, object]] = []

    # -- provisioning (before power-on) -----------------------------------
    def provision_image(self, name: str, region: str, asp) -> None:
        """Write an ASP image onto the SD card (bench preparation)."""
        bitstream = self.system.make_bitstream(region, asp, description=name)
        self.system.sdcard.store_file(f"{name}.bin", bitstream.to_bytes())
        self._images[name] = bitstream

    def bind_button(self, button: str, image_name: str) -> None:
        if image_name not in self._images:
            raise KeyError(f"no provisioned image {image_name!r}")
        self._button_map[button] = image_name
        self.system.buttons.on_press(
            button, lambda name=image_name: self.load_image(name)
        )

    # -- boot ---------------------------------------------------------------
    def boot(self) -> None:
        """Boot: read every image off the SD card and stage it in DRAM.

        Timed — SD reads at ~20 MB/s make boot take tens of milliseconds,
        which is why the images are staged once and reconfiguration then
        runs from DRAM.
        """
        if self.booted:
            raise RuntimeError("already booted")

        def sequence():
            for name, bitstream in sorted(self._images.items()):
                yield self.system.sdcard.read_file(f"{name}.bin")
                self._staged[name] = self.system.stage_bitstream(bitstream)
            return len(self._staged)

        process = self.system.sim.process(sequence(), name="fw.boot")
        self.system.sim.run_until(process)
        self.booted = True

    # -- operation -----------------------------------------------------------
    def selected_frequency_mhz(self) -> float:
        return self.system.switches.selected_frequency_mhz()

    def load_image(self, name: str):
        """One button press: reconfigure with ``name`` at the switch MHz."""
        if not self.booted:
            raise RuntimeError("press ignored: not booted yet")
        if name not in self._staged:
            raise KeyError(f"image {name!r} not staged (boot first)")
        bitstream = self._images[name]
        result = self.system.reconfigure(
            bitstream.region_name,
            asp=None,
            freq_mhz=self.selected_frequency_mhz(),
            bitstream=bitstream,
        )
        self.loads_performed += 1
        self.load_log.append(
            {
                "image": name,
                "region": result.region,
                "freq_mhz": result.freq_mhz,
                "latency_us": result.latency_us,
                "succeeded": result.succeeded,
                "critical_path": result.critical_path,
                "device_us": dict(result.device_us),
            }
        )
        return result

    def image_names(self) -> List[str]:
        return sorted(self._images)
