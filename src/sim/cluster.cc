#include "sim/cluster.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

bool
ClusterResult::anyOom() const
{
    return std::any_of(ranks.begin(), ranks.end(),
                       [](const RunResult &r) { return r.oom; });
}

std::size_t
ClusterResult::worstRank() const
{
    GMLAKE_ASSERT(!ranks.empty(), "empty cluster");
    std::size_t worst = 0;
    for (std::size_t r = 1; r < ranks.size(); ++r) {
        if (ranks[r].peakReserved > ranks[worst].peakReserved)
            worst = r;
    }
    return worst;
}

Bytes
ClusterResult::maxPeakReserved() const
{
    return ranks[worstRank()].peakReserved;
}

Bytes
ClusterResult::minPeakReserved() const
{
    GMLAKE_ASSERT(!ranks.empty(), "empty cluster");
    Bytes lowest = ~Bytes{0};
    for (const auto &r : ranks)
        lowest = std::min(lowest, r.peakReserved);
    return lowest;
}

double
ClusterResult::minUtilization() const
{
    GMLAKE_ASSERT(!ranks.empty(), "empty cluster");
    double lowest = 1.0;
    for (const auto &r : ranks)
        lowest = std::min(lowest, r.utilization);
    return lowest;
}

double
ClusterResult::globalSamplesPerSec(
    const workload::TrainConfig &c) const
{
    // Lockstep: every iteration takes as long as the slowest rank.
    Tick slowest = 0;
    int iterations = c.iterations;
    for (const auto &r : ranks) {
        slowest = std::max(slowest, r.simTime);
        iterations = std::min(iterations, r.iterationsDone);
    }
    if (slowest <= 0 || iterations <= 0)
        return 0.0;
    const double samples = static_cast<double>(iterations) *
                           static_cast<double>(c.batchSize) *
                           static_cast<double>(ranks.size());
    // Scale the slowest rank's total time to the completed part.
    return samples /
           (static_cast<double>(slowest) * 1e-9 *
            static_cast<double>(iterations) /
            static_cast<double>(c.iterations));
}

std::uint64_t
clusterRankSeed(const workload::TrainConfig &config, int rank)
{
    return deriveSeed(config.seed, static_cast<std::uint64_t>(rank));
}

ClusterResult
runCluster(const workload::TrainConfig &config, AllocatorKind kind,
           const ScenarioOptions &options, int threads)
{
    GMLAKE_ASSERT(config.gpus >= 1, "cluster needs at least one rank");
    ClusterResult cluster;
    cluster.ranks.resize(static_cast<std::size_t>(config.gpus));
    const std::size_t workers =
        threads == 0 ? defaultThreads()
                     : static_cast<std::size_t>(std::max(1, threads));
    // Each rank owns a private device + allocator + seeded trace and
    // writes only its own result slot, so the parallel schedule
    // cannot perturb the (rank-ordered) output.
    parallelFor(cluster.ranks.size(), workers,
                [&](std::size_t rank) {
                    workload::TrainConfig rankCfg = config;
                    rankCfg.seed = clusterRankSeed(
                        config, static_cast<int>(rank));
                    cluster.ranks[rank] =
                        runScenario(rankCfg, kind, options);
                });
    return cluster;
}

} // namespace gmlake::sim
