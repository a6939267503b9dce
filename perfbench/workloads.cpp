/**
 * @file
 * The benchmark's three workloads and the timed core::run call.
 *
 *  - proto_excerpt: the prototype engine (sim -> net -> Raft -> kernel ->
 *    sched) on the 17.5 h adobe excerpt, the paper's own interactive
 *    shape. Sessions live long and cells are sparse, so idle Raft
 *    traffic dominates.
 *  - fast_fleet: the fast engine on a 24 h adobe trace at 100x the
 *    arrival rate, streamed from an nbos-trace-v1 file, on a fixed
 *    2,000-server fleet with the autoscaler off: read-heavy placement.
 *  - fast_autoscale: the same trace file on the default fleet with the
 *    autoscaler on, two shards and rebalance routing: the scheduler and
 *    cluster layers under mutation (migrations, scale-out/in) plus the
 *    sharded window path.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "sim/rng.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_io.hpp"

namespace perfbench {

using namespace nbos;

namespace {

/** Pass-through SessionSource that times every pull and records it as a
 *  `trace_io.read` span under the enclosing `core.run` span. */
class TimedSource final : public workload::SessionSource
{
  public:
    TimedSource(workload::SessionSource& inner, SpanLog& log,
                std::uint32_t parent, std::uint32_t run)
        : inner_(inner), log_(log), parent_(parent), run_(run)
    {
    }

    const std::string& trace_name() const override
    {
        return inner_.trace_name();
    }
    sim::Time makespan() const override { return inner_.makespan(); }

    bool next(workload::SessionSpec& out) override
    {
        const auto start = Clock::now();
        const bool more = inner_.next(out);
        const auto end = Clock::now();
        read_s_ += seconds_between(start, end);
        log_.add("trace_io.read", parent_, run_, start, end);
        return more;
    }

    double read_s() const { return read_s_; }

  private:
    workload::SessionSource& inner_;
    SpanLog& log_;
    std::uint32_t parent_;
    std::uint32_t run_;
    double read_s_ = 0.0;
};

/** The fast workloads' trace: adobe at 100x the arrival rate over 24 h
 *  (tiny: 10x over 2 h). */
workload::GeneratorOptions
fast_trace_options(Shape shape)
{
    workload::GeneratorOptions options;
    options.makespan = (shape == Shape::kFull ? 24 : 2) * sim::kHour;
    options.arrival_rate_scale = shape == Shape::kFull ? 100.0 : 10.0;
    return options;
}

/** Record the input-side facts of @p trace on @p workload. */
void
describe_inputs(const workload::Trace& trace, Workload& workload)
{
    workload.sessions = trace.sessions.size();
    workload.cells.clear();
    std::vector<std::int32_t> gpus;
    for (const workload::SessionSpec& session : trace.sessions) {
        gpus.push_back(session.resources.gpus);
        for (const workload::CellTask& task : session.tasks) {
            workload.cells.emplace_back(session.id, task.seq);
        }
    }
    std::sort(workload.cells.begin(), workload.cells.end());
    workload.reserved_gpu_hours =
        core::reserved_gpu_series(trace).integrate_hours(0, trace.makespan);
    if (!gpus.empty()) {
        std::nth_element(gpus.begin(), gpus.begin() + gpus.size() / 2,
                         gpus.end());
        workload.typical_spec.gpus = gpus[gpus.size() / 2];
    }
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names{
        "proto_excerpt", "fast_fleet", "fast_autoscale"};
    return names;
}

Workload
set_up(const std::string& name, std::uint64_t seed, Shape shape,
       const std::string& trace_path, SpanLog& log, std::uint32_t run)
{
    if (std::find(workload_names().begin(), workload_names().end(), name) ==
        workload_names().end()) {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    const auto start = Clock::now();
    ScopedSpan setup(log, "setup", 0, run);
    Workload workload;
    core::RunRequest& request = workload.request;
    request.seed = seed;

    if (name == "proto_excerpt") {
        const auto gen_start = Clock::now();
        {
            ScopedSpan span(log, "workload.generate", setup.id(), run);
            workload::WorkloadGenerator generator{sim::Rng(seed)};
            if (shape == Shape::kFull) {
                workload.trace = generator.adobe_excerpt_17_5h();
            } else {
                workload::GeneratorOptions options;
                options.makespan = 2 * sim::kHour;
                options.max_sessions = 6;
                options.sessions_survive_trace = true;
                workload.trace = generator.generate(
                    workload::TraceProfile::adobe(), options);
            }
        }
        workload.gen_s = seconds_between(gen_start, Clock::now());
        request.config = core::PlatformConfig::prototype_defaults();
        request.config.policy = core::Policy::kNotebookOS;
        request.config.fast_mode = false;
        request.shards = 1;
        request.mode = core::RunMode::kMaterialized;
        workload.setup_s = seconds_between(start, Clock::now());
        describe_inputs(*workload.trace, workload);
        return workload;
    }

    // Both fast workloads share the trace file and the streamed fast
    // engine; they differ in fleet, autoscaler, shards and routing.
    workload::Trace trace;
    const auto gen_start = Clock::now();
    {
        ScopedSpan span(log, "workload.generate", setup.id(), run);
        const auto profile = workload::ProfileRegistry::instance().create(
            workload::kProfileAdobe);
        trace = profile->generate(seed, fast_trace_options(shape));
    }
    const auto write_start = Clock::now();
    workload.gen_s = seconds_between(gen_start, write_start);
    {
        ScopedSpan span(log, "trace_io.write", setup.id(), run);
        if (!workload::save_trace_file(trace, trace_path)) {
            throw std::runtime_error("cannot write trace file " + trace_path);
        }
    }
    workload.write_s = seconds_between(write_start, Clock::now());
    workload.trace_path = trace_path;

    request.engine = core::kEngineFast;
    request.config = core::PlatformConfig::prototype_defaults();
    request.mode = core::RunMode::kStreamed;
    if (name == "fast_fleet") {
        request.config.scheduler.initial_servers =
            shape == Shape::kFull ? 2000 : 50;
        request.config.scheduler.enable_autoscaler = false;
        request.shards = 1;
    } else {
        request.shards = 2;
        request.routing = sched::RoutingPolicyKind::kRebalance;
    }
    workload.setup_s = seconds_between(start, Clock::now());
    workload.trace_bytes = std::filesystem::file_size(trace_path);
    describe_inputs(trace, workload);
    return workload;
}

core::RunResponse
run_once(const Workload& workload, SpanLog& log, std::uint32_t run,
         RunTiming& timing)
{
    core::RunRequest request = workload.request;
    if (workload.trace_path.empty()) {
        request.trace = &*workload.trace;
        const auto start = Clock::now();
        const std::uint32_t span = log.open("core.run", 0, run);
        core::RunResponse response = core::run(request);
        log.close(span);
        timing.run_s = seconds_between(start, Clock::now());
        timing.read_s = 0.0;
        return response;
    }
    std::ifstream in(workload.trace_path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot open trace file " +
                                 workload.trace_path);
    }
    workload::TraceStreamSource file(in, workload.trace_path);
    const auto start = Clock::now();
    const std::uint32_t span = log.open("core.run", 0, run);
    core::RunResponse response;
    if (log.enabled()) {
        TimedSource timed(file, log, span, run);
        request.source = &timed;
        response = core::run(request);
        timing.read_s = timed.read_s();
    } else {
        request.source = &file;
        response = core::run(request);
        timing.read_s = 0.0;
    }
    log.close(span);
    timing.run_s = seconds_between(start, Clock::now());
    return response;
}

}  // namespace perfbench
