#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>

#include "json.hh"
#include "offload/offload_manager.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"

namespace gmlake::bench
{

// ------------------------------------------------------------ Digest

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        mHash ^= (v >> (8 * i)) & 0xff;
        mHash *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    if (!std::isfinite(v)) {
        add(std::uint64_t{0x7ff0dead});
        return;
    }
    add(static_cast<std::uint64_t>(std::llround(v * 1048576.0)));
}

void
Digest::add(std::string_view s)
{
    for (const char c : s) {
        mHash ^= static_cast<unsigned char>(c);
        mHash *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

// ----------------------------------------------------------- SpanLog

int
SpanLog::open(Boundary b, std::uint64_t start)
{
    const int parent = mStack.empty() ? -1 : mStack.back();
    int index = -1;
    if (mKept[b] < kKeep) {
        ++mKept[b];
        index = static_cast<int>(mSpans.size());
        mSpans.push_back(Span{start, start, parent, b});
    }
    mStack.push_back(index);
    return index;
}

void
SpanLog::close(int index, Boundary b, std::uint64_t start,
               std::uint64_t end)
{
    mStack.pop_back();
    ++mCount[b];
    mTotalNs[b] += end - start;
    if (index >= 0)
        mSpans[static_cast<std::size_t>(index)].end = end;
    else
        ++mDropped[b];
}

const char *
SpanLog::name(Boundary b)
{
    switch (b) {
      case replay: return "sim.replay";
      case allocate: return "alloc.allocate";
      case deallocate: return "alloc.deallocate";
      case synchronize: return "alloc.synchronize";
      case reclaim: return "offload.reclaim";
      case kBoundaries: break;
    }
    return "?";
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    const std::uint64_t origin = mSpans.empty() ? 0 : mSpans[0].start;
    JsonText events = JsonText::array();
    for (std::size_t i = 0; i < mSpans.size(); ++i) {
        const Span &s = mSpans[i];
        events.push(
            JsonText::object()
                .add("name", name(s.boundary))
                .add("ph", "X")
                .add("ts", static_cast<double>(s.start - origin) * 1e-3)
                .add("dur", static_cast<double>(s.end - s.start) * 1e-3)
                .add("pid", 1)
                .add("tid", 1)
                .add("args",
                     JsonText::object().add("id", i).add("parent", s.parent)));
    }
    JsonText aggregates = JsonText::object();
    for (int b = 0; b < kBoundaries; ++b) {
        aggregates.add(name(static_cast<Boundary>(b)),
                       JsonText::object()
                           .add("count", mCount[b])
                           .add("total_ns", mTotalNs[b])
                           .add("dropped", mDropped[b]));
    }
    std::ofstream out(path);
    out << JsonText::object()
               .add("displayTimeUnit", "ms")
               .add("traceEvents", events)
               .add("aggregates", aggregates)
               .str()
        << '\n';
    if (!out)
        GMLAKE_FATAL("cannot write ", path);
}

namespace
{

/** Host time, vmm time and a span around one wrapped allocator call. */
class CallTimer
{
  public:
    CallTimer(Layers &layers, const vmm::Device &device,
              SpanLog::Boundary boundary)
        : mLayers(layers),
          mDevice(device),
          mBoundary(boundary),
          mVmm0(device.counters().vmmWallNs),
          mStart(Stopwatch::nowNs()),
          mSpan(layers.spans.open(boundary, mStart))
    {
        ++mLayers.allocDepth;
    }

    /** Close the call; returns its host ns. */
    std::uint64_t
    stop()
    {
        const std::uint64_t end = Stopwatch::nowNs();
        --mLayers.allocDepth;
        mLayers.spans.close(mSpan, mBoundary, mStart, end);
        ++mLayers.allocCalls;
        mLayers.allocBusyNs += end - mStart;
        mLayers.vmmInAllocCallsNs +=
            mDevice.counters().vmmWallNs - mVmm0;
        return end - mStart;
    }

  private:
    Layers &mLayers;
    const vmm::Device &mDevice;
    SpanLog::Boundary mBoundary;
    std::uint64_t mVmm0;
    std::uint64_t mStart;
    int mSpan;
};

/**
 * The allocator the engine sees in a traced replay: forwards every
 * virtual to the real allocator, timing the calls the engine makes.
 */
class TimedAllocator final : public alloc::Allocator
{
  public:
    TimedAllocator(alloc::Allocator &inner, const vmm::Device &device,
                   Layers &layers)
        : mInner(inner), mDevice(device), mLayers(layers)
    {
    }

    using alloc::Allocator::allocate;
    Expected<alloc::Allocation>
    allocate(Bytes size, StreamId stream) override
    {
        CallTimer call(mLayers, mDevice, SpanLog::allocate);
        auto got = mInner.allocate(size, stream);
        mLayers.allocateNs.push_back(call.stop());
        if (!got.ok() && got.error().code == Errc::outOfMemory)
            ++mLayers.oomReturns;
        return got;
    }

    Status
    deallocate(alloc::AllocId id) override
    {
        CallTimer call(mLayers, mDevice, SpanLog::deallocate);
        const Status s = mInner.deallocate(id);
        call.stop();
        return s;
    }

    void
    streamSynchronize(StreamId stream) override
    {
        CallTimer call(mLayers, mDevice, SpanLog::synchronize);
        mInner.streamSynchronize(stream);
        call.stop();
    }

    void
    deviceSynchronize() override
    {
        CallTimer call(mLayers, mDevice, SpanLog::synchronize);
        mInner.deviceSynchronize();
        call.stop();
    }

    void emptyCache() override { mInner.emptyCache(); }
    const alloc::AllocatorStats &
    stats() const override
    {
        return mInner.stats();
    }
    std::string name() const override { return mInner.name(); }
    RecoveryCounters
    recoveryCounters() const override
    {
        return mInner.recoveryCounters();
    }
    void auditInvariants() const override { mInner.auditInvariants(); }
    alloc::Checkpoint
    saveState() const override
    {
        return mInner.saveState();
    }
    void
    restoreState(const alloc::Checkpoint &checkpoint) override
    {
        mInner.restoreState(checkpoint);
    }
    bool
    internallySynchronized() const override
    {
        return mInner.internallySynchronized();
    }
    std::uint64_t lockWaitNs() const override { return mInner.lockWaitNs(); }
    Bytes trimCache(Bytes target) override { return mInner.trimCache(target); }
    Bytes trimmableBytes() const override { return mInner.trimmableBytes(); }
    bool
    supportsLiveSpill() const override
    {
        return mInner.supportsLiveSpill();
    }
    Expected<Bytes>
    spillLive(alloc::AllocId id) override
    {
        return mInner.spillLive(id);
    }
    Status faultLive(alloc::AllocId id) override { return mInner.faultLive(id); }
    alloc::MemorySnapshot
    snapshot() const override
    {
        return mInner.snapshot();
    }

  private:
    alloc::Allocator &mInner;
    const vmm::Device &mDevice;
    Layers &mLayers;
};

/**
 * The allocator's offload hook in a traced replay: forwards to the
 * host tier, attributing reclaims that fire inside an allocator call
 * to the offload layer rather than to core.
 */
class TimedHook final : public alloc::OffloadHook
{
  public:
    TimedHook(offload::OffloadManager &tier, const vmm::Device &device,
              Layers &layers)
        : mTier(tier), mDevice(device), mLayers(layers)
    {
    }

    Bytes
    reclaimOnOom(Bytes needed, StreamId stream) override
    {
        const bool inAlloc = mLayers.allocDepth > 0;
        const std::uint64_t vmm0 = mDevice.counters().vmmWallNs;
        const std::uint64_t wall0 = mTier.stats().offloadWallNs;
        const std::uint64_t start = Stopwatch::nowNs();
        const int span = mLayers.spans.open(SpanLog::reclaim, start);
        const Bytes freed = mTier.reclaimOnOom(needed, stream);
        mLayers.spans.close(span, SpanLog::reclaim, start,
                            Stopwatch::nowNs());
        if (inAlloc) {
            mLayers.offloadInAllocNs +=
                mTier.stats().offloadWallNs - wall0;
            mLayers.vmmInNestedReclaimNs +=
                mDevice.counters().vmmWallNs - vmm0;
        }
        return freed;
    }

  private:
    offload::OffloadManager &mTier;
    const vmm::Device &mDevice;
    Layers &mLayers;
};

void
addRunResult(Digest &d, const sim::RunResult &r)
{
    d.add(r.allocator);
    d.add(static_cast<std::uint64_t>(r.oom));
    d.add(static_cast<std::uint64_t>(r.oomAt));
    d.add(static_cast<std::uint64_t>(r.iterationsDone));
    d.add(static_cast<std::uint64_t>(r.simTime));
    d.add(static_cast<std::uint64_t>(r.peakActive));
    d.add(static_cast<std::uint64_t>(r.peakReserved));
    d.add(r.utilization);
    d.add(r.fragmentation);
    d.add(r.samplesPerSec);
    d.add(r.allocCount);
    d.add(r.freeCount);
    d.add(static_cast<std::uint64_t>(r.deviceApiTime));
    d.add(static_cast<std::uint64_t>(r.series.size()));
    d.add(static_cast<std::uint64_t>(r.evictedBytes));
    d.add(static_cast<std::uint64_t>(r.faultedBytes));
    d.add(static_cast<std::uint64_t>(r.stallNs));
}

void
addSession(Digest &d, const sim::SessionResult &s)
{
    d.add(s.name);
    d.add(static_cast<std::uint64_t>(s.oom));
    d.add(static_cast<std::uint64_t>(s.oomAt));
    d.add(static_cast<std::uint64_t>(s.aborted));
    d.add(static_cast<std::uint64_t>(s.iterationsDone));
    d.add(s.allocCount);
    d.add(s.freeCount);
    d.add(static_cast<std::uint64_t>(s.peakLiveBytes));
    d.add(static_cast<std::uint64_t>(s.endedAt));
    d.add(static_cast<std::uint64_t>(s.evictedBytes));
    d.add(static_cast<std::uint64_t>(s.faultedBytes));
}

void
addStrategy(core::StrategyCounters &sum, const core::StrategyCounters &s)
{
    sum.s1ExactMatch += s.s1ExactMatch;
    sum.s2SingleBlock += s.s2SingleBlock;
    sum.s3MultiBlocks += s.s3MultiBlocks;
    sum.s4Insufficient += s.s4Insufficient;
    sum.s5Oom += s.s5Oom;
    sum.stitches += s.stitches;
    sum.splits += s.splits;
    sum.stitchFrees += s.stitchFrees;
    sum.smallPath += s.smallPath;
}

void
addStrategy(Digest &d, const core::StrategyCounters &s)
{
    for (const std::uint64_t v :
         {s.s1ExactMatch, s.s2SingleBlock, s.s3MultiBlocks,
          s.s4Insufficient, s.s5Oom, s.stitches, s.splits,
          s.stitchFrees, s.smallPath})
        d.add(v);
}

/** Forwards a tenant's source to the engine, counting the events. */
class CountingSource final : public workload::EventSource
{
  public:
    CountingSource(std::unique_ptr<workload::EventSource> inner,
                   std::uint64_t &pulled)
        : mInner(std::move(inner)), mPulled(pulled)
    {
    }

    const workload::Event *peek() override { return mInner->peek(); }
    void
    advance() override
    {
        ++mPulled;
        mInner->advance();
    }
    std::size_t sizeHint() const override { return mInner->sizeHint(); }
    void reset() override { mInner->reset(); }
    bool pure() const override { return mInner->pure(); }

  private:
    std::unique_ptr<workload::EventSource> mInner;
    std::uint64_t &mPulled;
};

/**
 * A seeded heap shift held across one row's replay. The host time of
 * a replay moves by up to a quarter with heap layout alone, and a
 * fixed allocation sequence lands on the same layout in every replay
 * of a process — so without a shift, each input is measured on one
 * lucky or unlucky layout. A different shift per replay makes the
 * median over replays average layouts instead.
 */
class HeapShift
{
  public:
    explicit HeapShift(Rng &rng)
        : mPad(std::make_unique<char[]>(16 * rng.uniformInt(1, 8000)))
    {
    }

  private:
    std::unique_ptr<char[]> mPad;
};

std::uint64_t
apiCallCount(const vmm::ApiCounters &c)
{
    return c.addressReserve + c.addressFree + c.create + c.release +
           c.map + c.unmap + c.setAccess + c.mallocNative + c.freeNative;
}

/**
 * Correctness checks on one finished row; appends violations and
 * returns how many tenants were killed.
 */
int
checkRow(const Row &row, const alloc::Allocator &allocator,
         const sim::MultiRunResult &multi,
         std::vector<std::string> &failures)
{
    try {
        allocator.auditInvariants();
    } catch (const std::exception &e) {
        failures.push_back(
            detail::concat(row.label, ": audit failed: ", e.what()));
    }
    int killed = 0;
    for (const sim::SessionResult &s : multi.sessions) {
        if (s.oom || s.aborted) {
            ++killed;
            continue;
        }
        if (s.allocCount != s.freeCount) {
            failures.push_back(detail::concat(
                row.label, "/", s.name, ": ", s.allocCount,
                " allocs but ", s.freeCount, " frees"));
        }
    }
    if (killed == 0 && allocator.stats().activeBytes() != 0) {
        failures.push_back(detail::concat(
            row.label, ": ", allocator.stats().activeBytes(),
            " bytes still active after every tenant freed all"));
    }
    return killed;
}

} // namespace

Replay
replay(const Inputs &inputs, const ReplayOptions &options)
{
    Replay out;
    Digest digest;
    Layers *layers = options.layers;
    Rng layout(options.layoutSeed);
    std::optional<ScaledClock> clock;
    if (options.calibrator != nullptr)
        clock.emplace(*options.calibrator);
    for (const Row &row : inputs.rows) {
        const HeapShift shift(layout);
        vmm::Device device(row.device);
        const auto allocator =
            sim::makeAllocator(options.kind, device, row.gmlake);
        sim::EngineOptions engineOptions;
        engineOptions.recordSeries = row.recordSeries;
        engineOptions.engineThreads = options.engineThreads;

        std::unique_ptr<offload::OffloadManager> tier;
        if (row.hostTier && options.kind == sim::AllocatorKind::gmlake) {
            offload::OffloadConfig cfg;
            cfg.policy = offload::PolicyKind::sizeAware;
            tier = std::make_unique<offload::OffloadManager>(
                device, *allocator, cfg);
            engineOptions.offload = tier.get();
        }
        std::unique_ptr<TimedHook> hook;
        std::unique_ptr<TimedAllocator> timed;
        alloc::Allocator *engineAllocator = allocator.get();
        if (layers != nullptr) {
            timed = std::make_unique<TimedAllocator>(*allocator, device,
                                                     *layers);
            engineAllocator = timed.get();
            if (tier != nullptr) {
                hook = std::make_unique<TimedHook>(*tier, device,
                                                   *layers);
                allocator->setOffloadHook(hook.get());
            }
        }

        sim::SimEngine engine(*engineAllocator, device, engineOptions);
        std::vector<std::uint64_t> pulled(row.tenants.size());
        for (std::size_t t = 0; t < row.tenants.size(); ++t) {
            const Tenant &tenant = row.tenants[t];
            engine.addSession(sim::Session(
                tenant.name,
                std::make_shared<CountingSource>(tenant.open(), pulled[t]),
                tenant.start));
        }
        if (options.recorder != nullptr) {
            options.recorder->beginRun(row.label);
            options.recorder->activate();
        }
        const std::uint64_t vmm0 = device.counters().vmmWallNs;
        const std::uint64_t start = Stopwatch::nowNs();
        const int span = layers != nullptr
                             ? layers->spans.open(SpanLog::replay, start)
                             : -1;
        const sim::MultiRunResult multi = engine.run();
        const std::uint64_t end = Stopwatch::nowNs();
        if (options.recorder != nullptr)
            options.recorder->deactivate();
        out.wallNs += end - start;
        for (const std::uint64_t n : pulled) {
            out.pulled.push_back(n);
            out.events += n;
        }
        if (layers != nullptr) {
            layers->spans.close(span, SpanLog::replay, start, end);
            layers->vmmBusyNs += device.counters().vmmWallNs - vmm0;
            if (tier != nullptr)
                layers->offloadBusyNs += tier->stats().offloadWallNs;
        }

        const int killed = checkRow(row, *allocator, multi, out.failures);

        const sim::RunResult &r = multi.combined;
        digest.add(row.label);
        addRunResult(digest, r);
        for (const sim::SessionResult &s : multi.sessions)
            addSession(digest, s);
        const auto *lake =
            dynamic_cast<const core::GMLakeAllocator *>(allocator.get());
        if (lake != nullptr) {
            addStrategy(digest, lake->strategy());
            digest.add(static_cast<std::uint64_t>(lake->pBlockCount()));
            digest.add(static_cast<std::uint64_t>(lake->sBlockCount()));
            addStrategy(out.strategy, lake->strategy());
            out.pBlocks += lake->pBlockCount();
            out.sBlocks += lake->sBlockCount();
        }

        out.rows.push_back(RowFacts{r.peakReserved, r.utilization,
                                    r.simTime, multi.anyOom(), killed});
        out.apiCalls += apiCallCount(device.counters());
        out.deviceApiNs += r.deviceApiTime;
        out.peakHoles = std::max<std::uint64_t>(
            out.peakHoles, device.phys().peakHoleCount());
        if (tier != nullptr) {
            out.evictedBytes += tier->stats().evictedBytes;
            out.faultedBytes += tier->stats().faultedBytes;
        }
        out.stallNs += r.stallNs;
        out.commitStallNs += r.commitStallNs;
        if (clock)
            clock->add(end - start);
    }
    out.digest = digest.value();
    if (clock)
        out.scaledNs = clock->total();
    return out;
}

namespace
{

template <typename Visit>
void
forEachEvent(const Inputs &inputs, Visit &&visit)
{
    for (const Row &row : inputs.rows) {
        for (const Tenant &tenant : row.tenants) {
            const auto source = tenant.open();
            for (const workload::Event *e = source->peek(); e != nullptr;
                 e = source->peek()) {
                visit(*e);
                source->advance();
            }
        }
    }
}

} // namespace

Fingerprint
fingerprint(const Inputs &inputs)
{
    // Word-wise FNV-1a: one xor-multiply per field keeps hashing a
    // few-million-event stream well under a second.
    Fingerprint fp;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    forEachEvent(inputs, [&](const workload::Event &e) {
        ++fp.events;
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.tensor);
        mix(e.bytes);
        mix(static_cast<std::uint64_t>(e.computeNs));
        mix(e.stream);
    });
    fp.hash = h;
    return fp;
}

std::uint64_t
drain(const Inputs &inputs, const std::vector<std::uint64_t> &pulled)
{
    std::uint64_t events = 0;
    std::size_t tenantIndex = 0;
    for (const Row &row : inputs.rows) {
        for (const Tenant &tenant : row.tenants) {
            const std::uint64_t limit = tenantIndex < pulled.size()
                                            ? pulled[tenantIndex]
                                            : 0;
            ++tenantIndex;
            const auto source = tenant.open();
            for (std::uint64_t i = 0; i < limit && source->peek() != nullptr;
                 ++i) {
                source->advance();
                ++events;
            }
        }
    }
    return events;
}

} // namespace gmlake::bench
