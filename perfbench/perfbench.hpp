/**
 * @file
 * Shared types of the repo benchmark: workload set-up, the output check,
 * the public-API layer probes and the benchmark's own span log.
 *
 * The benchmark drives the simulator only through core::run(RunRequest).
 * Per-layer numbers come from the counters a run already returns and from
 * timing the benchmark's own calls into public layer functions; nothing
 * under src/ is instrumented.
 */
#ifndef NBOS_PERFBENCH_HPP
#define NBOS_PERFBENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/resources.hpp"
#include "core/engine_api.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Median of @p values (0 when empty). */
inline double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/**
 * In-memory span log, written as JSON when the benchmark ends. Every span
 * has a name, start, end, parent span (0 = none) and run id: the spans of
 * one set-up, one core::run call or one probe share their run id. A
 * disabled log records nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        std::uint32_t run = 0;
        const char* name = "";
        Clock::time_point start{};
        Clock::time_point end{};
    };

    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint32_t open(const char* name, std::uint32_t parent,
                       std::uint32_t run);
    /** Close span @p id (no-op for 0). */
    void close(std::uint32_t id);
    /** Record an already-timed span. */
    void add(const char* name, std::uint32_t parent, std::uint32_t run,
             Clock::time_point start, Clock::time_point end);

    const std::vector<Span>& spans() const { return spans_; }

    /** Write the spans as JSON (times in microseconds from the log's
     *  creation). @return false when the file cannot be written. */
    bool write_json(const std::string& path, const std::string& header) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span over one scope of SpanLog. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent,
               std::uint32_t run)
        : log_(log), id_(log.open(name, parent, run))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog& log_;
    std::uint32_t id_;
};

/** Workload size: the measured shape, or a tiny one for the self-test. */
enum class Shape
{
    kFull,
    kTiny,
};

/** One input cell, identified the way TaskOutcome names it. */
using CellKey = std::pair<nbos::workload::SessionId, std::int32_t>;

/**
 * A workload after set-up: the request to hand core::run, its input (a
 * materialized trace or a trace file streamed back on every run) and the
 * input-side facts the output check and the model metrics need.
 */
struct Workload
{
    nbos::core::RunRequest request;
    /** Materialized input (prototype workload). */
    std::optional<nbos::workload::Trace> trace;
    /** nbos-trace-v1 file streamed through TraceStreamSource (fast
     *  workloads); empty when the input is materialized. */
    std::string trace_path;

    /** Every input (session, seq), sorted. */
    std::vector<CellKey> cells;
    std::uint64_t sessions = 0;
    /** Area under reserved_gpu_series over the trace makespan. */
    double reserved_gpu_hours = 0.0;
    /** GPUs of the median session (the probes' placement request). */
    nbos::cluster::ResourceSpec typical_spec{};

    /** Set-up time: generation, trace-file write and config (not the
     *  input-side bookkeeping above, which is the benchmark's own). */
    double setup_s = 0.0;
    double gen_s = 0.0;
    double write_s = 0.0;
    std::uint64_t trace_bytes = 0;
};

/** Names of the workloads, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workload_names();

/**
 * Generate the inputs of workload @p name from @p seed and build its
 * request. Fast workloads write their trace to @p trace_path. Spans go to
 * @p log under run @p run.
 * @throws std::invalid_argument for an unknown workload name.
 */
Workload set_up(const std::string& name, std::uint64_t seed, Shape shape,
                const std::string& trace_path, SpanLog& log,
                std::uint32_t run);

/** Timing of one core::run call. */
struct RunTiming
{
    double run_s = 0.0;
    /** Time inside SessionSource::next (streamed workloads only). */
    double read_s = 0.0;
};

/**
 * Run @p workload once through core::run. With an enabled @p log the
 * trace-file pulls are timed and recorded as children of a `core.run`
 * span.
 */
nbos::core::RunResponse run_once(const Workload& workload, SpanLog& log,
                                 std::uint32_t run, RunTiming& timing);

/** Verdict of the output check on one run. */
struct CheckResult
{
    /** Input cells without exactly one outcome, plus outcomes naming no
     *  input cell. */
    std::uint64_t bad_cells = 0;
    /** Human-readable violations (empty when the run passes). */
    std::vector<std::string> problems;

    bool ok() const { return bad_cells == 0 && problems.empty(); }
};

/**
 * Check one run's outputs against its inputs: every input (session, seq)
 * has exactly one outcome, completed + aborted = cells, and committed
 * GPU-hours stay within provisioned GPU-hours.
 */
CheckResult check_outputs(const std::vector<CellKey>& cells,
                          const nbos::core::ExperimentResults& results);

/** FNV-1a fingerprint of a run's outcomes and deterministic counters. */
std::uint64_t fingerprint(const nbos::core::RunResponse& response);

/** Timings of the public-API layer probes, microseconds per call. */
struct ProbeResult
{
    std::size_t fleet = 0;
    double pick_us = 0.0;
    double totals_us = 0.0;
};

/**
 * Time LeastLoadedPolicy::pick and Cluster::total_gpus +
 * total_subscribed_gpus on a cluster of @p fleet servers whose committed
 * and subscribed GPUs match the given fleet-wide fractions.
 */
ProbeResult run_probes(std::size_t fleet, double committed_fraction,
                       double subscription_ratio,
                       const nbos::cluster::ResourceSpec& spec,
                       std::int32_t replicas, std::uint64_t seed,
                       double budget_s, SpanLog& log, std::uint32_t run);

}  // namespace perfbench

#endif  // NBOS_PERFBENCH_HPP
