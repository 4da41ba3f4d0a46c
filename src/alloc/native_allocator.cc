#include "alloc/native_allocator.hh"

#include <utility>

#include "support/logging.hh"
#include "support/units.hh"

namespace gmlake::alloc
{

struct NativeAllocator::State : AllocatorState
{
    std::unordered_map<AllocId, Record> live;
    AllocId nextId = 1;
    AllocatorStats::Snapshot stats;
};

NativeAllocator::NativeAllocator(vmm::Device &device)
    : mDevice(device)
{
}

Expected<Allocation>
NativeAllocator::allocate(Bytes size, StreamId stream)
{
    (void)stream; // cudaMalloc synchronizes the whole device
    if (size == 0)
        return makeError(Errc::invalidValue, "allocate of zero bytes");
    const auto va = mDevice.mallocNative(size);
    if (!va.ok())
        return va.error();
    mDevice.syncPenalty();

    const Bytes reserved = roundUp(size, vmm::kGranularity);
    const AllocId id = mNextId++;
    mLive.emplace(id, Record{*va, size, reserved});
    mStats.onAllocate(size);
    mStats.onReserve(reserved);
    return Allocation{id, size, *va};
}

Checkpoint
NativeAllocator::saveState() const
{
    auto state = std::make_shared<State>();
    state->live = mLive;
    state->nextId = mNextId;
    state->stats = mStats.capture();
    return Checkpoint{name(), mDevice.saveState(),
                      std::move(state)};
}

void
NativeAllocator::restoreState(const Checkpoint &checkpoint)
{
    GMLAKE_ASSERT(checkpoint.allocator == name(),
                  "checkpoint from allocator '",
                  checkpoint.allocator, "' restored into native");
    const auto *state =
        dynamic_cast<const State *>(checkpoint.state.get());
    GMLAKE_ASSERT(state != nullptr, "malformed native checkpoint");
    mDevice.restoreState(checkpoint.device);
    mLive = state->live;
    mNextId = state->nextId;
    mStats.restore(state->stats);
}

Status
NativeAllocator::deallocate(AllocId id)
{
    auto it = mLive.find(id);
    if (it == mLive.end())
        return makeError(Errc::invalidValue, "unknown allocation id");
    const Status s = mDevice.freeNative(it->second.addr);
    if (!s.ok())
        return s;
    mDevice.syncPenalty();
    mStats.onDeallocate(it->second.requested);
    mStats.onRelease(it->second.reserved);
    mLive.erase(it);
    return Status::success();
}

} // namespace gmlake::alloc
