/**
 * @file
 * Synthesizes the per-iteration allocation request stream of LLM
 * fine-tuning under the paper's strategy and parallelism axes.
 *
 * The generator models, per training iteration of rank 0:
 *  - persistent state: per-layer fp16 weight shards, gradient shards,
 *    Adam optimizer states (fp32 master + two moments) unless
 *    offloaded to the CPU, and LoRA adapters when enabled;
 *  - forward: per-layer parameter all-gather transients (ZeRO-3 /
 *    FSDP / chunked for Colossal-AI), activation tensors (full set, or
 *    only layer checkpoints under recomputation), attention score
 *    tensors, and short-lived cuBLAS-style workspaces;
 *  - backward (reverse layer order): re-gather transients, activation
 *    re-materialization under recomputation, full-size gradient
 *    transients before reduce-scatter (tiny ones under LoRA), frees of
 *    the forward activations;
 *  - optimizer step: in-place when resident, staged swap buffers per
 *    layer when offloaded.
 *
 * Irregularity — the paper's root cause of fragmentation — emerges
 * from iteration-to-iteration sequence-length jitter (dataloader
 * variability) and the lognormal workspace sizes, both driven by the
 * seeded RNG, so every trace is reproducible.
 */

#ifndef GMLAKE_WORKLOAD_TRACEGEN_HH
#define GMLAKE_WORKLOAD_TRACEGEN_HH

#include <cstdint>
#include <vector>

#include "workload/trace.hh"
#include "workload/train_config.hh"

namespace gmlake::workload
{

/** Generate the rank-0 allocation trace for @p config. */
Trace generateTrainingTrace(const TrainConfig &config);

/**
 * Estimate the persistent (model state) bytes per GPU for @p config;
 * exposed for capacity planning in benches and tests.
 */
Bytes estimatePersistentBytes(const TrainConfig &config);

/**
 * Deterministic heterogeneous split of @p total into @p n chunk-
 * aligned sizes growing linearly (1, 2, ..., n units): the spread is
 * what lets the LRU and size-aware eviction policies diverge.
 */
std::vector<Bytes> residentSplit(Bytes total, int n);

/**
 * One oversubscription tenant for the host-offload tier: a resident
 * set of large, long-lived tensors (weights + optimizer state)
 * touched phase by phase every iteration, plus transient activations
 * churned inside each phase. With prefetch hints on, the next
 * phase's resident tensor is announced one compute phase ahead, so a
 * spilled tensor's H2D can overlap the current phase instead of
 * stalling the touch. Deterministic in @p seed.
 */
Trace makeOffloadTenantTrace(std::uint64_t seed, Bytes residentBytes,
                             int residentTensors, int iterations,
                             int transientsPerPhase, Tick phaseNs,
                             bool prefetchHints);

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_TRACEGEN_HH
