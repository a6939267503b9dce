/**
 * @file
 * Layer probes through public cluster/sched API: the cost of one
 * LeastLoadedPolicy::pick and of the cluster-wide GPU totals on a fleet
 * sized and loaded like the workload's. The fast engine calls pick once
 * per kernel placement, so pick_us x kernels_created estimates the
 * placement share of the engine's own time.
 */
#include <algorithm>
#include <cmath>

#include "cluster/cluster.hpp"
#include "perfbench.hpp"
#include "sched/placement.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace nbos;

namespace {

/** Per-call microseconds of @p body, timed in batches of @p batch calls
 *  until @p budget_s is spent (at least 16 batches). */
template <typename Body>
double
time_per_call_us(Body&& body, int batch, double budget_s)
{
    std::vector<double> samples;
    const auto deadline_start = Clock::now();
    while (samples.size() < 16 ||
           seconds_between(deadline_start, Clock::now()) < budget_s) {
        const auto start = Clock::now();
        for (int i = 0; i < batch; ++i) {
            body();
        }
        samples.push_back(seconds_between(start, Clock::now()) * 1e6 /
                          static_cast<double>(batch));
    }
    return median(std::move(samples));
}

}  // namespace

ProbeResult
run_probes(std::size_t fleet, double committed_fraction,
           double subscription_ratio, const cluster::ResourceSpec& spec,
           std::int32_t replicas, std::uint64_t seed, double budget_s,
           SpanLog& log, std::uint32_t run)
{
    ProbeResult result;
    result.fleet = std::max<std::size_t>(fleet, 1);

    cluster::Cluster cluster;
    sim::Rng rng(seed);
    for (std::size_t i = 0; i < result.fleet; ++i) {
        cluster::GpuServer& server = cluster.add_server();
        const std::int32_t gpus = server.capacity().gpus;
        const auto subscribed = static_cast<std::int32_t>(std::lround(
            subscription_ratio * gpus * replicas * rng.uniform(0.5, 1.5)));
        const auto committed = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(
                committed_fraction * gpus * rng.uniform(0.5, 1.5))),
            0, gpus);
        server.subscribe(cluster::ResourceSpec{0, 0, subscribed, 0.0});
        server.commit(cluster::ResourceSpec{0, 0, committed, 0.0});
    }

    sched::LeastLoadedPolicy policy;
    const auto count = static_cast<std::size_t>(replicas);
    std::size_t picked = 0;
    {
        ScopedSpan span(log, "probe.pick", 0, run);
        result.pick_us = time_per_call_us(
            [&] { picked += policy.pick(cluster, spec, count, replicas).size(); },
            1, budget_s / 2);
    }
    std::int64_t totals = 0;
    {
        ScopedSpan span(log, "probe.cluster_totals", 0, run);
        result.totals_us = time_per_call_us(
            [&] {
                totals += cluster.total_gpus() +
                          cluster.total_subscribed_gpus();
            },
            16, budget_s / 2);
    }
    // Keep both probe bodies observable so neither is optimized away.
    static volatile std::int64_t sink = 0;
    sink = sink + static_cast<std::int64_t>(picked) + totals;
    return result;
}

}  // namespace perfbench
