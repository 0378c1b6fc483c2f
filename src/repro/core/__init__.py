"""ZnG core contribution: zero-overhead FTL, read prefetching, register write cache."""

from repro.core.dbmt import DataBlockMappingTable, DBMTEntry
from repro.core.lpmt import LogPageMappingTable, ProgrammableRowDecoder
from repro.core.lbmt import LogBlockMappingTable
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
from repro.core.helper_gc import HelperThreadGC
from repro.core.predictor import PredictorTable
from repro.core.access_monitor import AccessMonitor
from repro.core.prefetcher import DynamicReadPrefetcher
from repro.core.register_cache import FlashRegisterCache, RegisterEntry
from repro.core.register_network import RegisterNetwork, build_register_network
from repro.core.thrashing import ThrashingChecker
from repro.core.cam_decoder import ProgrammableDecoderCAM, CAMRow
from repro.core.integrity import IntegrityModel, install_integrity_tracking
from repro.core.prefetch_policies import (
    NoPrefetch,
    NextLinePrefetch,
    StridePrefetch,
    build_prefetcher,
)

__all__ = [
    "DataBlockMappingTable",
    "DBMTEntry",
    "LogPageMappingTable",
    "ProgrammableRowDecoder",
    "LogBlockMappingTable",
    "ZeroOverheadFTL",
    "HelperThreadGC",
    "PredictorTable",
    "AccessMonitor",
    "DynamicReadPrefetcher",
    "FlashRegisterCache",
    "RegisterEntry",
    "RegisterNetwork",
    "build_register_network",
    "ThrashingChecker",
    "ProgrammableDecoderCAM",
    "CAMRow",
    "IntegrityModel",
    "install_integrity_tracking",
    "NoPrefetch",
    "NextLinePrefetch",
    "StridePrefetch",
    "build_prefetcher",
]
