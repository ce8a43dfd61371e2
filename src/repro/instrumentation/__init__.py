"""Instrumentation: timers, FLOP/byte cost model and report formatting."""

from repro.instrumentation.timers import Timer, RepeatTimer, TimingStatistics
from repro.instrumentation.flops import BCPNNCostModel, CostBreakdown
from repro.instrumentation.pipeline_bench import measure_pipelined_training
from repro.instrumentation.reports import format_table, format_comparison, dump_json_report
from repro.instrumentation.serving_bench import measure_serving_latency
from repro.instrumentation.sparse_bench import measure_sparse_density_sweep

__all__ = [
    "Timer",
    "RepeatTimer",
    "TimingStatistics",
    "BCPNNCostModel",
    "CostBreakdown",
    "format_table",
    "format_comparison",
    "dump_json_report",
    "measure_pipelined_training",
    "measure_serving_latency",
    "measure_sparse_density_sweep",
]
