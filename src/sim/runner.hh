/**
 * @file
 * The one run primitive: a Rig builds a fresh device, allocator and
 * optional host tier, and replays sessions on them. Every replay —
 * registry rows, sweep points, chaos trials, probes and `gmlake_sim
 * trace` — runs on one.
 */

#ifndef GMLAKE_SIM_RUNNER_HH
#define GMLAKE_SIM_RUNNER_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocator.hh"
#include "alloc/caching_allocator.hh"
#include "core/gmlake_config.hh"
#include "offload/offload_manager.hh"
#include "sim/session.hh"
#include "vmm/device.hh"
#include "workload/train_config.hh"

namespace gmlake::sim
{

enum class AllocatorKind
{
    native,
    caching,
    gmlake,
    compacting, //!< moving-defragmentation baseline (related work)
    expandable, //!< PyTorch expandable_segments (GMLake-inspired)
};

const char *allocatorKindName(AllocatorKind kind);

/**
 * Inverse of allocatorKindName(): parse an allocator name as used on
 * every CLI/config surface; nullopt for unknown names. The one
 * name<->kind mapping shared by tools, the registry, and tests.
 */
std::optional<AllocatorKind>
parseAllocatorKind(std::string_view name);

/** Every allocator kind, in CLI/report order. */
const std::vector<AllocatorKind> &allAllocatorKinds();

/** Construct an allocator of @p kind bound to @p device. */
std::unique_ptr<alloc::Allocator>
makeAllocator(AllocatorKind kind, vmm::Device &device,
              const core::GMLakeConfig &gmlakeConfig = {},
              const alloc::CachingConfig &cachingConfig = {});

struct ScenarioOptions
{
    vmm::DeviceConfig device{};
    core::GMLakeConfig gmlake{};
    /** Knobs of AllocatorKind::caching (PyTorch's allocator conf). */
    alloc::CachingConfig caching{};
    /** Eviction policy of an OffloadManager on the rig; unset =
     *  no host tier. */
    std::optional<offload::PolicyKind> hostTier;
    EngineOptions engine{};
};

/**
 * One replay set-up: a device, an allocator on it and, when
 * ScenarioOptions::hostTier is set, a host tier on both. device()
 * and allocator() serve set-up before a run (fault plans, restores)
 * and inspection after it (audits, counters, saveState).
 */
class Rig
{
  public:
    explicit Rig(AllocatorKind kind, const ScenarioOptions &options = {});

    AllocatorKind kind() const { return mKind; }
    vmm::Device &device() { return mDevice; }
    alloc::Allocator &allocator() { return *mAllocator; }

    /**
     * Replay @p sessions in one SimEngine run with the options'
     * EngineOptions; @p config, when given, derives throughput. A
     * later run continues from the state this one left.
     */
    MultiRunResult run(std::vector<Session> sessions,
                       const workload::TrainConfig *config = nullptr);

  private:
    AllocatorKind mKind;
    EngineOptions mEngine;
    vmm::Device mDevice;
    std::unique_ptr<alloc::Allocator> mAllocator;
    // Declared last so it is destroyed first: the manager detaches
    // itself from the allocator on destruction.
    std::unique_ptr<offload::OffloadManager> mHostTier;
};

/**
 * Run one training scenario end to end on a fresh rig and return
 * the metrics. The same generated trace is used for any allocator
 * kind given the same config (generation is seed-deterministic).
 */
RunResult runScenario(const workload::TrainConfig &config,
                      AllocatorKind kind,
                      const ScenarioOptions &options = {});

} // namespace gmlake::sim

#endif // GMLAKE_SIM_RUNNER_HH
