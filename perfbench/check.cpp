/**
 * @file
 * The benchmark's output check and run fingerprint.
 */
#include <algorithm>
#include <cstring>

#include "perfbench.hpp"

namespace perfbench {

using namespace nbos;

CheckResult
check_outputs(const std::vector<CellKey>& cells,
              const core::ExperimentResults& results)
{
    CheckResult check;
    std::vector<std::uint32_t> outcomes(cells.size(), 0);
    std::uint64_t unknown = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    for (const core::TaskOutcome& task : results.tasks) {
        (task.aborted ? aborted : completed) += 1;
        const CellKey key{task.session, task.seq};
        const auto it = std::lower_bound(cells.begin(), cells.end(), key);
        if (it == cells.end() || *it != key) {
            ++unknown;
            continue;
        }
        ++outcomes[static_cast<std::size_t>(it - cells.begin())];
    }
    const auto not_once = static_cast<std::uint64_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](std::uint32_t n) { return n != 1; }));
    check.bad_cells = not_once + unknown;
    if (not_once > 0) {
        check.problems.push_back(std::to_string(not_once) +
                                 " input cells without exactly one outcome");
    }
    if (unknown > 0) {
        check.problems.push_back(std::to_string(unknown) +
                                 " outcomes name no input cell");
    }
    if (completed + aborted != cells.size()) {
        check.problems.push_back(
            "completed " + std::to_string(completed) + " + aborted " +
            std::to_string(aborted) + " != cells " +
            std::to_string(cells.size()));
    }
    const double committed = results.gpu_hours_committed();
    const double provisioned = results.gpu_hours_provisioned();
    if (!(committed <= provisioned * (1.0 + 1e-9))) {
        check.problems.push_back(
            "committed GPU-hours " + std::to_string(committed) +
            " exceed provisioned " + std::to_string(provisioned));
    }
    return check;
}

namespace {

class Fnv
{
  public:
    template <typename T>
    void mix(const T& value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char byte : bytes) {
            hash_ ^= byte;
            hash_ *= 1099511628211ULL;
        }
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace

std::uint64_t
fingerprint(const core::RunResponse& response)
{
    const core::ExperimentResults& results = response.results;
    Fnv fnv;
    fnv.mix(results.tasks.size());
    for (const core::TaskOutcome& task : results.tasks) {
        fnv.mix(task.session);
        fnv.mix(task.seq);
        fnv.mix(task.submit);
        fnv.mix(task.exec_start);
        fnv.mix(task.exec_end);
        fnv.mix(task.reply);
        fnv.mix(task.migrated);
        fnv.mix(task.aborted);
    }
    const sched::SchedulerStats& s = results.sched_stats;
    for (const std::uint64_t counter :
         {s.kernels_created, s.executions_completed, s.executions_aborted,
          s.elections_failed, s.migrations, s.migrations_aborted,
          s.scale_outs, s.scale_ins, s.yield_conversions,
          s.immediate_commits, s.executor_reuses, s.gpu_executions,
          s.prewarm_hits, s.cold_starts, s.replica_failovers}) {
        fnv.mix(counter);
    }
    const net::NetworkStats& n = results.net_stats;
    for (const std::uint64_t counter :
         {n.sent, n.delivered, n.dropped, n.dropped_chaos,
          n.blocked_partition, n.dead_destination}) {
        fnv.mix(counter);
    }
    fnv.mix(results.makespan);
    fnv.mix(results.store_bytes_written);
    fnv.mix(results.gpu_hours_provisioned());
    fnv.mix(results.gpu_hours_committed());
    fnv.mix(response.events_executed);
    fnv.mix(response.sessions_rebalanced);
    return fnv.value();
}

}  // namespace perfbench
