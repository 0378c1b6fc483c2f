"""SSD substrate: Z-NAND flash backbone, flash network, FTL firmware and SSD engine."""

from repro.ssd.geometry import FlashGeometry, FlashLocation
from repro.ssd.znand import ZNANDArray
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.flash_controller import FlashController, FlashControllerArray
from repro.ssd.ftl_firmware import PageMappedFTL
from repro.ssd.ssd_engine import SSDEngine
from repro.ssd.gc import GarbageCollector
from repro.ssd.optane import OptaneMemory
from repro.ssd.endurance import EnduranceModel, EnduranceReport

__all__ = [
    "FlashGeometry",
    "FlashLocation",
    "ZNANDArray",
    "FlashNetwork",
    "FlashController",
    "FlashControllerArray",
    "PageMappedFTL",
    "SSDEngine",
    "GarbageCollector",
    "OptaneMemory",
    "EnduranceModel",
    "EnduranceReport",
]
