#include "sim/runner.hh"

#include "alloc/caching_allocator.hh"
#include "alloc/compacting_allocator.hh"
#include "alloc/expandable_allocator.hh"
#include "alloc/native_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "support/logging.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

const char *
allocatorKindName(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::native: return "native";
      case AllocatorKind::caching: return "caching";
      case AllocatorKind::gmlake: return "gmlake";
      case AllocatorKind::compacting: return "compacting";
      case AllocatorKind::expandable: return "expandable";
    }
    return "unknown";
}

std::optional<AllocatorKind>
parseAllocatorKind(std::string_view name)
{
    for (const AllocatorKind kind : allAllocatorKinds()) {
        if (name == allocatorKindName(kind))
            return kind;
    }
    return std::nullopt;
}

const std::vector<AllocatorKind> &
allAllocatorKinds()
{
    static const std::vector<AllocatorKind> kinds = {
        AllocatorKind::native,     AllocatorKind::caching,
        AllocatorKind::gmlake,     AllocatorKind::compacting,
        AllocatorKind::expandable,
    };
    return kinds;
}

std::unique_ptr<alloc::Allocator>
makeAllocator(AllocatorKind kind, vmm::Device &device,
              const core::GMLakeConfig &gmlakeConfig,
              const alloc::CachingConfig &cachingConfig)
{
    switch (kind) {
      case AllocatorKind::native:
        return std::make_unique<alloc::NativeAllocator>(device);
      case AllocatorKind::caching:
        return std::make_unique<alloc::CachingAllocator>(
            device, cachingConfig);
      case AllocatorKind::gmlake:
        return std::make_unique<core::GMLakeAllocator>(device,
                                                       gmlakeConfig);
      case AllocatorKind::compacting:
        return std::make_unique<alloc::CompactingAllocator>(device);
      case AllocatorKind::expandable:
        return std::make_unique<alloc::ExpandableSegmentsAllocator>(
            device);
    }
    GMLAKE_PANIC("unknown allocator kind");
}

Rig::Rig(AllocatorKind kind, const ScenarioOptions &options)
    : mKind(kind),
      mEngine(options.engine),
      mDevice(options.device),
      mAllocator(makeAllocator(kind, mDevice, options.gmlake,
                               options.caching))
{
    if (options.hostTier) {
        offload::OffloadConfig config;
        config.policy = *options.hostTier;
        mHostTier = std::make_unique<offload::OffloadManager>(
            mDevice, *mAllocator, config);
        mEngine.offload = mHostTier.get();
    }
}

MultiRunResult
Rig::run(std::vector<Session> sessions,
         const workload::TrainConfig *config)
{
    SimEngine engine(*mAllocator, mDevice, mEngine);
    for (Session &session : sessions)
        engine.addSession(std::move(session));
    return engine.run(config);
}

RunResult
runScenario(const workload::TrainConfig &config, AllocatorKind kind,
            const ScenarioOptions &options)
{
    Rig rig(kind, options);
    const workload::Trace trace =
        workload::generateTrainingTrace(config);
    return rig.run({Session("main", &trace)}, &config).combined;
}

} // namespace gmlake::sim
