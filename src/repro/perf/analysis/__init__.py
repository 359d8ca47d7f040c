"""Trace analysis and developer hints (paper §4.3)."""

from repro.perf.analysis.callgraph import build_call_graph, edge_counts, to_dot
from repro.perf.analysis.detectors import (
    AnalyzerWeights,
    Finding,
    Problem,
    Recommendation,
    detect_merge_batch_candidates,
    detect_move_candidates,
    detect_paging,
    detect_reorder_candidates,
    detect_ssc,
)
from repro.perf.analysis.export import (
    FINDINGS_SCHEMA,
    finding_to_dict,
    load_findings,
    report_to_dict,
    report_to_json,
)
from repro.perf.analysis.report import AnalysisReport, Analyzer
from repro.perf.analysis.stats import (
    CallStatistics,
    Histogram,
    all_statistics,
    compute_statistics,
    execution_durations_ns,
    fraction_shorter_than,
    histogram,
    scatter_series,
)

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "AnalyzerWeights",
    "CallStatistics",
    "FINDINGS_SCHEMA",
    "Finding",
    "Histogram",
    "Problem",
    "Recommendation",
    "all_statistics",
    "build_call_graph",
    "compute_statistics",
    "detect_merge_batch_candidates",
    "detect_move_candidates",
    "detect_paging",
    "detect_reorder_candidates",
    "detect_ssc",
    "edge_counts",
    "execution_durations_ns",
    "finding_to_dict",
    "fraction_shorter_than",
    "histogram",
    "load_findings",
    "report_to_dict",
    "report_to_json",
    "scatter_series",
    "to_dot",
]
