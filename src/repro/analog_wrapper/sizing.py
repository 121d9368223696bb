"""Shared-wrapper sizing and compatibility rules (Section 3).

When several analog cores share one test wrapper:

* the ADC/DAC resolution is the **maximum** of the sharing cores'
  resolution requirements;
* the encoder/decoder are designed for the test with the **largest TAM
  width** requirement;
* the converters must reach the **fastest sampling rate** any sharing
  core's tests need.

The paper also warns that "a module that requires high-speed and
low-resolution data converters cannot share its wrapper with a module
that requires high-resolution and low-speed data converters" — a joint
high-speed *and* high-resolution converter is not achievable with
reasonable overhead.  :class:`CompatibilityPolicy` encodes that rule as
thresholds; the defaults are loose enough that all of the paper's Table
1 combinations remain admissible (the paper evaluates them all), while
the ablation bench tightens them to show the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..soc.model import AnalogCore
from .area_model import wrapper_area_mm2
from .wrapper import WrapperHardware

__all__ = [
    "wrapper_requirements",
    "shared_hardware",
    "core_wrapper_hardware",
    "CompatibilityPolicy",
    "DEFAULT_POLICY",
]


def wrapper_requirements(
    cores: Sequence[AnalogCore],
) -> tuple[int, float, int]:
    """Joint (resolution_bits, max_sample_freq_hz, tam_width) of *cores*.

    :raises ValueError: if *cores* is empty.
    """
    if not cores:
        raise ValueError("at least one core is required")
    resolution = max(core.resolution_bits for core in cores)
    speed = max(core.max_sample_freq_hz for core in cores)
    width = max(core.max_tam_width for core in cores)
    return resolution, speed, width


def core_wrapper_hardware(core: AnalogCore) -> WrapperHardware:
    """The private (unshared) wrapper sizing for one core."""
    return shared_hardware([core])


def shared_hardware(cores: Sequence[AnalogCore]) -> WrapperHardware:
    """Wrapper hardware sized for all of *cores* (max of requirements)."""
    resolution, speed, width = wrapper_requirements(cores)
    return WrapperHardware(
        resolution_bits=resolution,
        max_sample_freq_hz=speed,
        tam_width=width,
    )


@dataclass(frozen=True)
class CompatibilityPolicy:
    """Feasibility thresholds for speed/resolution co-design.

    A sharing group is *incompatible* when its joint requirements would
    force a converter that is simultaneously high-resolution
    (``>= high_resolution_bits``) and high-speed
    (``>= high_speed_hz``), with the two requirements contributed by
    *different* cores — i.e. no single core needed both, sharing
    created the pathological combination.

    :param high_resolution_bits: resolution threshold (bits).
    :param high_speed_hz: sampling-rate threshold (Hz).
    """

    high_resolution_bits: int = 12
    high_speed_hz: float = 100e6

    def is_compatible(self, cores: Sequence[AnalogCore]) -> bool:
        """Whether *cores* may share one wrapper under this policy.

        :raises ValueError: if *cores* is empty.
        """
        resolution, speed, _ = wrapper_requirements(cores)
        return self._compatible(cores, resolution, speed)

    def _compatible(
        self, cores: Sequence[AnalogCore], resolution: int, speed: float
    ) -> bool:
        """:meth:`is_compatible` given the joint requirements."""
        if (
            len(cores) == 1
            or resolution < self.high_resolution_bits
            or speed < self.high_speed_hz
        ):
            return True
        # joint requirement is pathological; allow it only if one core
        # individually needed both (then sharing did not create it)
        for core in cores:
            if (
                core.resolution_bits >= self.high_resolution_bits
                and core.max_sample_freq_hz >= self.high_speed_hz
            ):
                return True
        return False

    def area_mm2(self, cores: Sequence[AnalogCore]) -> float:
        """Shared-wrapper area for *cores*.

        :raises ValueError: if the group is incompatible.
        """
        resolution, speed, width = wrapper_requirements(cores)
        if not self._compatible(cores, resolution, speed):
            names = ",".join(core.name for core in cores)
            raise ValueError(
                f"cores {{{names}}} are speed/resolution incompatible "
                f"under {self}"
            )
        return wrapper_area_mm2(resolution, speed, width)


#: Policy used by the paper reproduction (admits all Table 1 groups).
DEFAULT_POLICY = CompatibilityPolicy()
