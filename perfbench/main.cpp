/**
 * @file
 * perfbench: the repo benchmark binary.
 *
 *   perfbench --workload <proto_excerpt|fast_fleet|fast_autoscale>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--shape full|tiny] [--self-test] [--out-dir <dir>]
 *             [--commit <id>] [--source <digest>]
 *
 * Sets the workload up, then calls core::run on it repeatedly for about
 * --seconds seconds, setting it up again before every call; setup_s is
 * the median of all set-ups. cells_per_s is the cells simulated per
 * wall-second of the fastest call (the median call is reported per
 * layer). Every call's outputs are checked (exactly one outcome per input
 * cell, completed + aborted = cells, committed <= provisioned GPU-hours)
 * and fingerprinted, and every call of one invocation must give the same
 * fingerprint. A failed check makes the command exit 1 after printing its
 * result.
 *
 * --trace 1 alternates untraced and traced calls. The traced ones record
 * the benchmark's spans (set-up, generation, trace-file write, core.run
 * and its trace-file pulls, probes) and give the per-layer metrics; the
 * best untraced over the best traced cells/s, minus 1, is the tracing
 * overhead. Spans and a full result document (every metric plus the host
 * fingerprint) are written under --out-dir.
 *
 * The last line of stdout is one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer ones
 * with --trace 1. Metrics a workload's engine does not report are -1.
 *
 * --self-test runs the red path of the output check on the workload:
 * a dropped, a duplicated and a foreign outcome must each be flagged.
 */
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

using namespace nbos;
using perfbench::Clock;
using perfbench::median;
using perfbench::seconds_between;

/** Value of a metric a workload's engine does not report. */
constexpr double kUnmeasured = -1.0;

/** Before every core::run call the workload is set up again, at least
 *  once and for at least this long, so the set-up samples behind setup_s
 *  spread over the whole measurement window. */
constexpr double kSetupBatchSeconds = 0.05;

/** Wall time the traced run gives the two probes together. */
constexpr double kProbeBudgetS = 0.5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    perfbench::Shape shape = perfbench::Shape::kFull;
    bool self_test = false;
    std::string out_dir = ".bench_out";
    std::string commit = "unknown";
    std::string source = "unknown";
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--shape full|tiny] "
                 "[--self-test] [--out-dir <dir>] [--commit <id>] "
                 "[--source <digest>]\n";
    std::exit(2);
}

std::uint64_t
parse_count(const std::string& flag, const std::string& text)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-') {
        usage(flag + " expects a whole number, got '" + text + "'");
    }
    return value;
}

Options
parse_args(int argc, char** argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            options.self_test = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = parse_count(flag, value);
        } else if (flag == "--seconds") {
            options.seconds = static_cast<double>(parse_count(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage("--trace expects 0 or 1, got '" + value + "'");
            }
            options.trace = value == "1";
        } else if (flag == "--shape") {
            if (value != "full" && value != "tiny") {
                usage("--shape expects full or tiny, got '" + value + "'");
            }
            options.shape = value == "full" ? perfbench::Shape::kFull
                                            : perfbench::Shape::kTiny;
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else if (flag == "--source") {
            options.source = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    const auto& names = perfbench::workload_names();
    if (!have_workload ||
        std::find(names.begin(), names.end(), options.workload) ==
            names.end()) {
        usage("--workload must be one of proto_excerpt, fast_fleet, "
              "fast_autoscale");
    }
    return options;
}

/** Peak resident memory of this process image in MB. VmHWM is read in
 *  preference to getrusage's ru_maxrss, which keeps the peak of the
 *  process image that exec'd this one. */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
json_escape(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out;
}

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
format_value(double value)
{
    std::ostringstream out;
    out << std::setprecision(12) << value;
    return out.str();
}

std::string
metrics_json(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "" : ", ");
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               format_value(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}";
}

/** The host fingerprint every result carries. */
std::string
host_json(const Options& options)
{
    std::ostringstream out;
    out << "\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
        << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
        << "\", \"git_commit\": \"" << json_escape(options.commit)
        << "\", \"source_digest\": \"" << json_escape(options.source)
        << "\"}";
    return out.str();
}

/** Time-averaged value of @p series over [0, @p makespan]. */
double
mean_over(const metrics::TimeSeries& series, sim::Time makespan)
{
    return makespan > 0 ? series.mean_over(0, makespan) : 0.0;
}

int
self_test(const Options& options)
{
    perfbench::SpanLog log(false);
    const std::string trace_path = options.out_dir + "/" + options.workload +
                                   "-selftest.nbtrace";
    const perfbench::Workload workload = perfbench::set_up(
        options.workload, options.seed, options.shape, trace_path, log, 1);
    perfbench::RunTiming timing;
    const core::RunResponse response =
        perfbench::run_once(workload, log, 2, timing);
    std::filesystem::remove(trace_path);

    int failures = 0;
    const auto expect = [&](const char* what, bool flagged, bool want) {
        std::cout << "self-test " << options.workload << ": " << what << " -> "
                  << (flagged ? "flagged" : "passed") << "\n";
        if (flagged != want) {
            ++failures;
        }
    };
    const core::ExperimentResults& real = response.results;
    expect("unmodified run", !perfbench::check_outputs(workload.cells, real).ok(),
           false);
    if (real.tasks.empty()) {
        std::cout << "self-test " << options.workload << ": no outcomes\n";
        return 1;
    }
    core::ExperimentResults dropped = real;
    dropped.tasks.pop_back();
    expect("dropped outcome",
           !perfbench::check_outputs(workload.cells, dropped).ok(), true);
    core::ExperimentResults duplicated = real;
    duplicated.tasks.push_back(duplicated.tasks.front());
    expect("duplicated outcome",
           !perfbench::check_outputs(workload.cells, duplicated).ok(), true);
    core::ExperimentResults foreign = real;
    foreign.tasks.front().seq += 1000000;
    expect("outcome of no input cell",
           !perfbench::check_outputs(workload.cells, foreign).ok(), true);

    core::RunResponse changed = response;
    changed.results.tasks.back().reply += 1;
    expect("fingerprint of a changed outcome",
           perfbench::fingerprint(changed) != perfbench::fingerprint(response),
           true);
    std::cout << "self-test " << options.workload << ": "
              << (failures == 0 ? "ok" : "FAILED") << "\n";
    return failures == 0 ? 0 : 1;
}

/** Timings of every set-up of one invocation. */
struct SetUpTimes
{
    std::vector<double> setup_s, gen_s, write_s;
};

/** Set the workload up once, recording its timings. */
perfbench::Workload
timed_set_up(const Options& options, const std::string& trace_path,
             SetUpTimes& times, perfbench::SpanLog& log, std::uint32_t& run)
{
    perfbench::Workload workload = perfbench::set_up(
        options.workload, options.seed, options.shape, trace_path, log, ++run);
    times.setup_s.push_back(workload.setup_s);
    times.gen_s.push_back(workload.gen_s);
    times.write_s.push_back(workload.write_s);
    return workload;
}

/** Everything the measured core::run calls produced. */
struct Measurement
{
    std::vector<double> cps_untraced, cps_traced;
    /** Traced runs only. */
    std::vector<double> run_s, read_s, self_s, busy_s;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::uint64_t fingerprint = 0;
    /** The first run that returned, without its outcome list (every later
     *  run must match its fingerprint, so its counters are the run's).
     *  Dropping the outcomes keeps peak RSS at one run's worth. */
    std::optional<core::RunResponse> first;
    /** Outcome-derived facts of the first run. */
    metrics::Percentiles delays_s;
    std::uint64_t aborted = 0;
    /** Peak RSS once the workload was set up and run once. Later calls
     *  are left out: how many fit in the window depends on host speed. */
    double first_peak_rss_mb = 0.0;
};

/**
 * Call core::run until the next call would end past --seconds, checking
 * and fingerprinting every call. With --trace 1, odd calls are traced.
 */
Measurement
measure(const perfbench::Workload& workload, const Options& options,
        const std::string& trace_path, SetUpTimes& setup_times,
        perfbench::SpanLog& log, std::uint32_t& run)
{
    Measurement m;
    perfbench::SpanLog untraced(false);
    const std::uint64_t cells = workload.cells.size();
    const std::size_t min_calls = options.trace ? 2 : 1;
    const auto start = Clock::now();
    for (std::size_t call = 0;; ++call) {
        const double elapsed = seconds_between(start, Clock::now());
        const double typical =
            call == 0 ? 0.0 : elapsed / static_cast<double>(call);
        if (call >= min_calls && elapsed + typical > options.seconds) {
            break;
        }
        // Hand freed memory back first, so every set-up starts from a heap
        // like a fresh process's instead of one shaped by the last run.
        malloc_trim(0);
        const auto batch_start = Clock::now();
        do {
            timed_set_up(options, trace_path, setup_times, log, run);
        } while (seconds_between(batch_start, Clock::now()) <
                 kSetupBatchSeconds);
        const bool traced = options.trace && call % 2 == 1;
        std::vector<double>& cps = traced ? m.cps_traced : m.cps_untraced;
        m.attempted += cells;
        perfbench::RunTiming timing;
        core::RunResponse response;
        try {
            response = perfbench::run_once(workload, traced ? log : untraced,
                                           ++run, timing);
        } catch (const std::exception& error) {
            m.failed += cells;
            m.problems.push_back(std::string("run threw: ") + error.what());
            cps.push_back(0.0);
            continue;
        }
        const perfbench::CheckResult check =
            perfbench::check_outputs(workload.cells, response.results);
        const std::uint64_t print = perfbench::fingerprint(response);
        if (!m.first) {
            m.fingerprint = print;
        }
        if (!check.ok() || print != m.fingerprint) {
            // A run that fails a check counts every one of its cells.
            m.failed += cells;
            m.problems.insert(m.problems.end(), check.problems.begin(),
                              check.problems.end());
            if (print != m.fingerprint) {
                m.problems.push_back("fingerprint differs from the first run");
            }
        }
        cps.push_back(static_cast<double>(cells) / timing.run_s);
        if (traced) {
            m.run_s.push_back(timing.run_s);
            m.read_s.push_back(timing.read_s);
            m.self_s.push_back(timing.run_s - timing.read_s);
            if (!response.shard_busy_seconds.empty()) {
                m.busy_s.push_back(*std::max_element(
                    response.shard_busy_seconds.begin(),
                    response.shard_busy_seconds.end()));
            }
        }
        if (!m.first) {
            m.first_peak_rss_mb = peak_rss_mb();
            m.delays_s = response.results.interactivity_delays_seconds();
            m.aborted = response.results.aborted_count();
            response.results.tasks = {};
            m.first = std::move(response);
        }
    }
    return m;
}

/** Probe pick and the fleet totals on a cluster of the workload's
 *  time-averaged fleet per shard, loaded to its mean committed and
 *  subscribed GPUs. */
perfbench::ProbeResult
probe(const perfbench::Workload& workload,
      const core::ExperimentResults& results, const Options& options,
      perfbench::SpanLog& log, std::uint32_t& run)
{
    const double provisioned =
        mean_over(results.provisioned_gpus, results.makespan);
    const double committed =
        mean_over(results.committed_gpus, results.makespan);
    const sched::SchedulerConfig& scheduler =
        workload.request.config.scheduler;
    const double shards =
        static_cast<double>(workload.request.shards.value_or(1));
    const auto fleet = static_cast<std::size_t>(std::lround(
        provisioned / static_cast<double>(scheduler.server_shape.gpus) /
        shards));
    return perfbench::run_probes(
        fleet, provisioned > 0 ? committed / provisioned : 0.0,
        mean_over(results.subscription_ratio, results.makespan),
        workload.typical_spec, scheduler.kernel.replica_count, options.seed,
        kProbeBudgetS, log, ++run);
}

double
best(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

std::vector<Metric>
per_layer_metrics(const perfbench::Workload& workload,
                  const SetUpTimes& setup, const Measurement& m,
                  const perfbench::ProbeResult& probes,
                  std::size_t span_count)
{
    const core::RunResponse& response = *m.first;
    const core::ExperimentResults& results = response.results;
    const sched::SchedulerStats& stats = results.sched_stats;
    const bool streamed = !workload.trace_path.empty();
    // The prototype's core::run path returns no simulation event count.
    const bool prototype = workload.request.engine.empty();
    const auto cells = static_cast<double>(workload.cells.size());
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const auto per_cell = [&](std::uint64_t n) {
        return cells > 0 ? static_cast<double>(n) / cells : 0.0;
    };
    const auto p50 = [](const metrics::Percentiles& p) {
        return p.empty() ? 0.0 : p.median();
    };
    const metrics::Percentiles& delays = m.delays_s;
    const double engine_self_s = median(m.self_s);
    const double best_traced = best(m.cps_traced);
    return {
        {"failed_share",
         m.attempted > 0 ? count(m.failed) / count(m.attempted) : 1.0,
         "share"},
        {"model.interactivity_p50_s",
         delays.empty() ? 0.0 : delays.percentile(50.0), "s"},
        {"model.interactivity_p99_s",
         delays.empty() ? 0.0 : delays.percentile(99.0), "s"},
        {"model.interactivity_n", count(delays.count()), "count"},
        {"model.gpu_hours_saved",
         workload.reserved_gpu_hours - results.gpu_hours_provisioned(),
         "GPU-h"},
        {"model.aborted_share", per_cell(m.aborted), "share"},
        {"workload.sessions", count(workload.sessions), "count"},
        {"workload.cells", cells, "count"},
        {"workload.gen_s", median(setup.gen_s), "s"},
        {"trace_io.write_s", streamed ? median(setup.write_s) : kUnmeasured,
         "s"},
        {"trace_io.bytes", streamed ? count(workload.trace_bytes) : kUnmeasured,
         "B"},
        {"trace_io.read_s", streamed ? median(m.read_s) : kUnmeasured, "s"},
        {"core.cells_per_s_median", median(m.cps_untraced), "cells/s"},
        {"core.run_s", median(m.run_s), "s"},
        {"core.engine_self_s", engine_self_s, "s"},
        {"core.shard_busy_s", m.busy_s.empty() ? kUnmeasured : median(m.busy_s),
         "s"},
        {"core.shard_imbalance", stats.shard_imbalance(), "ratio"},
        {"core.sessions_rebalanced", count(response.sessions_rebalanced),
         "count"},
        {"sim.events",
         prototype ? kUnmeasured : count(response.events_executed), "count"},
        {"sim.events_per_cell",
         prototype ? kUnmeasured : per_cell(response.events_executed),
         "events/cell"},
        {"net.msgs_sent", count(results.net_stats.sent), "count"},
        {"net.msgs_per_cell", per_cell(results.net_stats.sent), "msgs/cell"},
        {"net.msgs_dropped", count(results.net_stats.dropped), "count"},
        {"raft.elections_failed", count(stats.elections_failed), "count"},
        {"raft.replica_failovers", count(stats.replica_failovers), "count"},
        {"kernel.syncs", count(results.sync_ms.count()), "count"},
        {"kernel.sync_p50_ms", p50(results.sync_ms), "ms"},
        {"storage.bytes_written", count(results.store_bytes_written), "B"},
        {"storage.read_p50_ms", p50(results.read_ms), "ms"},
        {"storage.write_p50_ms", p50(results.write_ms), "ms"},
        {"sched.kernels_created", count(stats.kernels_created), "count"},
        {"sched.migrations", count(stats.migrations), "count"},
        {"sched.migrations_aborted", count(stats.migrations_aborted), "count"},
        {"sched.scale_outs", count(stats.scale_outs), "count"},
        {"sched.scale_ins", count(stats.scale_ins), "count"},
        {"sched.immediate_commits", count(stats.immediate_commits), "count"},
        {"sched.executor_reuses", count(stats.executor_reuses), "count"},
        {"sched.prewarm_hits", count(stats.prewarm_hits), "count"},
        {"sched.cold_starts", count(stats.cold_starts), "count"},
        {"sched.migrations_per_cell", per_cell(stats.migrations),
         "migrations/cell"},
        {"sched.pick_us", probes.pick_us, "us"},
        {"sched.pick_share",
         engine_self_s > 0 ? probes.pick_us * 1e-6 *
                                 count(stats.kernels_created) / engine_self_s
                           : 0.0,
         "share"},
        {"cluster.probe_servers", count(probes.fleet), "count"},
        {"cluster.totals_us", probes.totals_us, "us"},
        {"cluster.gpu_hours_provisioned", results.gpu_hours_provisioned(),
         "GPU-h"},
        {"cluster.gpu_hours_committed", results.gpu_hours_committed(),
         "GPU-h"},
        {"trace.overhead",
         best_traced > 0 ? best(m.cps_untraced) / best_traced - 1.0 : 0.0,
         "share"},
        {"trace.spans", count(span_count), "count"},
    };
}

void
print_table(const char* title, const std::vector<Metric>& metrics)
{
    std::cout << "# " << title << "\n";
    for (const Metric& metric : metrics) {
        std::cout << "#   " << std::left << std::setw(32) << metric.name
                  << std::right << std::setw(18) << format_value(metric.value)
                  << " " << metric.unit
                  << (metric.value == kUnmeasured ? "  (unmeasured)" : "")
                  << "\n";
    }
}

void
print_runs(const char* title, const std::vector<double>& cps)
{
    std::cout << "# cells/s per run (" << title << "):";
    for (const double value : cps) {
        std::cout << " " << format_value(value);
    }
    std::cout << "\n";
}

int
benchmark(const Options& options)
{
    perfbench::SpanLog log(options.trace);
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    const std::string trace_path = stem + ".nbtrace";
    std::uint32_t run = 0;

    SetUpTimes setup;
    const perfbench::Workload workload =
        timed_set_up(options, trace_path, setup, log, run);
    Measurement m = measure(workload, options, trace_path, setup, log, run);
    std::filesystem::remove(trace_path);
    if (!m.first) {
        m.first.emplace();
    }
    perfbench::ProbeResult probes;
    if (options.trace) {
        probes = probe(workload, m.first->results, options, log, run);
    }

    // The headline is the fastest untraced run: co-tenant load on a shared
    // host only ever slows a run down, and it comes and goes within
    // seconds, so the fastest of several runs is the steadiest estimate of
    // the program's own cost. The median run is reported per layer.
    const std::vector<Metric> end_to_end{
        {"cells_per_s", best(m.cps_untraced), "cells/s"},
        {"setup_s", median(setup.setup_s), "s"},
        {"peak_rss_mb", m.first_peak_rss_mb, "MB"},
    };
    const std::vector<Metric> per_layer =
        per_layer_metrics(workload, setup, m, probes, log.spans().size());

    std::ostringstream fingerprint;
    fingerprint << std::hex << m.fingerprint;
    const std::string header =
        "\"workload\": \"" + options.workload +
        "\", \"seed\": " + std::to_string(options.seed) +
        ", \"trace\": " + (options.trace ? "1" : "0") + ", " +
        host_json(options) + ", \"fingerprint\": \"" + fingerprint.str() +
        "\"";
    if (options.trace && !log.write_json(stem + "-spans.json", header)) {
        m.problems.push_back("cannot write " + stem + "-spans.json");
    }
    std::ofstream(stem + "-trace" + (options.trace ? "1" : "0") +
                  "-result.json")
        << "{" << header << ", \"end_to_end\": " << metrics_json(end_to_end)
        << ", \"per_layer\": " << metrics_json(per_layer) << "}\n";

    // Human-readable report: every metric by name and unit.
    std::cout << "# perfbench " << options.workload << " seed="
              << options.seed << " trace=" << (options.trace ? 1 : 0)
              << " runs=" << m.cps_untraced.size() + m.cps_traced.size()
              << " fingerprint=" << fingerprint.str() << "\n# {"
              << host_json(options) << "}\n";
    print_runs("untraced", m.cps_untraced);
    print_runs("traced", m.cps_traced);
    std::cout << "# set-ups: " << setup.setup_s.size() << ", fastest "
              << format_value(*std::min_element(setup.setup_s.begin(),
                                                setup.setup_s.end()))
              << " s\n";
    print_table("end-to-end", end_to_end);
    print_table(options.trace ? "per-layer"
                              : "per-layer (probes and timings need --trace 1)",
                per_layer);
    std::cout << "# sched.pick_share reference: ~0.58 on fast_fleet "
                 "(gprof: pick + its sort), ~0 on proto_excerpt\n";
    for (const std::string& problem : m.problems) {
        std::cout << "# CHECK FAILED: " << problem << "\n";
    }

    const bool correct = m.failed == 0 && m.problems.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << m.attempted
              << ", \"failed\": " << m.failed << ", \"metrics\": "
              << metrics_json(options.trace ? per_layer : end_to_end) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Options options = parse_args(argc, argv);
    try {
        std::filesystem::create_directories(options.out_dir);
        return options.self_test ? self_test(options) : benchmark(options);
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
