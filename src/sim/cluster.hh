/**
 * @file
 * Multi-rank cluster simulation: run every data-parallel rank on its
 * own simulated device and allocator instead of only rank 0.
 *
 * Ranks process different data, so their sequence-length draws and
 * transient sizes diverge — each rank fragments differently, and the
 * job's fate is decided by the *worst* rank: one OOM kills the whole
 * job, and lockstep collectives make the slowest rank set the pace.
 */

#ifndef GMLAKE_SIM_CLUSTER_HH
#define GMLAKE_SIM_CLUSTER_HH

#include <vector>

#include "sim/runner.hh"

namespace gmlake::sim
{

struct ClusterResult
{
    std::vector<RunResult> ranks;

    bool anyOom() const;
    /** Index of the rank with the highest peak reserved memory. */
    std::size_t worstRank() const;
    Bytes maxPeakReserved() const;
    Bytes minPeakReserved() const;
    double minUtilization() const;
    /**
     * Global samples/s under lockstep synchronization: the slowest
     * rank gates every iteration.
     */
    double globalSamplesPerSec(const workload::TrainConfig &c) const;
};

/** Workload seed of rank @p rank (splitmix-derived; see deriveSeed). */
std::uint64_t clusterRankSeed(const workload::TrainConfig &config,
                              int rank);

/**
 * Run @p config on every rank (config.gpus devices). Rank r uses the
 * splitmix-derived seed clusterRankSeed(config, r), modelling
 * per-rank data without cross-base-seed collisions.
 *
 * Ranks are independent — each owns a private device, allocator, and
 * trace — so with @p threads > 1 they execute on parallelFor
 * (0 = one worker per hardware thread, like every other `threads`
 * surface). Every rank writes only its own slot of the rank-ordered
 * result vector, making the outcome bit-identical to the sequential
 * (threads == 1) run regardless of scheduling.
 */
ClusterResult runCluster(const workload::TrainConfig &config,
                         AllocatorKind kind,
                         const ScenarioOptions &options = {},
                         int threads = 1);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_CLUSTER_HH
