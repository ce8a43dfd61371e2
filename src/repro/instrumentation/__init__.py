"""Instrumentation: timers, FLOP/byte cost model and report formatting."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "timers": ["Timer", "RepeatTimer", "TimingStatistics"],
        "flops": ["BCPNNCostModel", "CostBreakdown"],
        "pipeline_bench": ["measure_pipelined_training"],
        "reports": ["format_table", "format_comparison", "dump_json_report"],
        "serving_bench": ["measure_serving_latency"],
        "sparse_bench": ["measure_sparse_density_sweep"],
    },
)
