#include "sim/session.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "offload/offload_manager.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"

namespace gmlake::sim
{

Session::Session(std::string name, workload::Trace trace,
                 Tick startTime)
    : mName(std::move(name)),
      mSource(std::make_shared<workload::VectorSource>(
          std::move(trace))),
      mStartTime(startTime)
{
}

Session::Session(std::string name, const workload::Trace *trace,
                 Tick startTime)
    : mName(std::move(name)),
      mSource(std::make_shared<workload::VectorSource>(trace)),
      mStartTime(startTime)
{
}

Session::Session(std::string name,
                 std::shared_ptr<workload::EventSource> source,
                 Tick startTime)
    : mName(std::move(name)),
      mSource(std::move(source)),
      mStartTime(startTime)
{
    GMLAKE_ASSERT(mSource != nullptr,
                  "session streams a null source");
}

std::vector<Session>
borrowSessions(const std::vector<Tenant> &tenants, std::size_t count)
{
    std::vector<Session> sessions;
    for (std::size_t i = 0; i < std::min(count, tenants.size()); ++i) {
        sessions.emplace_back(tenants[i].name, &tenants[i].trace,
                              tenants[i].startTime);
    }
    return sessions;
}

bool
MultiRunResult::anyOom() const
{
    return std::any_of(sessions.begin(), sessions.end(),
                       [](const SessionResult &s) { return s.oom; });
}

const SessionResult *
MultiRunResult::find(const std::string &name) const
{
    const auto it = std::find_if(
        sessions.begin(), sessions.end(),
        [&](const SessionResult &s) { return s.name == name; });
    return it == sessions.end() ? nullptr : &*it;
}

SimEngine::SimEngine(alloc::Allocator &allocator, vmm::Device &device,
                     EngineOptions options)
    : mAllocator(allocator), mDevice(device), mOptions(options)
{
}

std::size_t
SimEngine::addSession(Session session)
{
    GMLAKE_ASSERT(!mRan, "session added after run()");
    GMLAKE_ASSERT(session.startTime() >= 0,
                  "session start time is negative");
    mSessions.push_back(std::move(session));
    return mSessions.size() - 1;
}

namespace
{

/** A live allocation of one session: allocator id + requested size. */
struct LiveAlloc
{
    alloc::AllocId id;
    Bytes bytes;
};

/** Replay cursor + bookkeeping of one session. */
struct Cursor
{
    workload::EventSource *src = nullptr; //!< session event stream
    /**
     * The pointer the source's last peek() returned, refreshed after
     * each of this cursor's own events; nullptr at end of stream.
     * The source keeps it valid until the cursor's next advance(),
     * so the replay loop copies the event from here instead of
     * peeking again, and cross-cursor queries (reclaim's survivor
     * scan, compute-tail stamping) read the end-of-stream state
     * without touching another session's source.
     */
    const workload::Event *next = nullptr;
    Tick localTime = 0;      //!< startTime + consumed compute
    bool dead = false;       //!< OOM-killed
    /** Last executed event was compute (its end needs stamping). */
    bool lastWasCompute = false;
    Bytes liveBytes = 0;
    std::unordered_map<workload::TensorId, LiveAlloc> live;
    /** Remapped streams this session touched, in first-use order. */
    std::vector<StreamId> seenStreams;
    SessionResult result;

    void refresh() { next = src->peek(); }

    bool exhausted() const { return next == nullptr; }

    bool
    finished() const
    {
        return dead || exhausted();
    }

    /** The stream ended in compute whose end is not stamped yet. */
    bool
    tailPending() const
    {
        return lastWasCompute && !dead && exhausted();
    }
};

} // namespace

MultiRunResult
SimEngine::run(const workload::TrainConfig *config)
{
    GMLAKE_ASSERT(!mRan, "SimEngine::run is single-shot");
    GMLAKE_ASSERT(!mSessions.empty(), "engine has no sessions");
    mRan = true;

    MultiRunResult multi;
    RunResult &result = multi.combined;
    result.allocator = mAllocator.name();

    const Stopwatch runWall;
    const Tick apiTimeStart = mDevice.counters().apiTime;
    const std::uint64_t vmmWallStart = mDevice.counters().vmmWallNs;
    const Tick timeStart = mDevice.now();
    const std::uint64_t injectedStart =
        mDevice.faultInjector() != nullptr
            ? mDevice.faultInjector()->counters().totalInjected()
            : 0;
    const auto recoveryStart = mAllocator.recoveryCounters();

    // Offload tier: everything is folded in as deltas, so an engine
    // sharing a device/manager with a previous run reports only its
    // own traffic.
    offload::OffloadManager *tier = mOptions.offload;
    const Tick copyStallStart = mDevice.counters().copyStallNs;
    Bytes evictedStart = 0, faultedStart = 0;
    std::uint64_t offloadWallStart = 0;
    std::vector<offload::SessionOffloadStats> sessionStart(
        mSessions.size());
    if (tier != nullptr) {
        evictedStart =
            tier->stats().evictedBytes + tier->stats().trimmedBytes;
        faultedStart = tier->stats().faultedBytes;
        offloadWallStart = tier->stats().offloadWallNs;
        for (std::size_t i = 0; i < mSessions.size(); ++i)
            sessionStart[i] = tier->sessionStats(i);
    }

    std::vector<Cursor> cursors(mSessions.size());
    std::size_t totalEvents = 0;
    for (std::size_t i = 0; i < mSessions.size(); ++i) {
        // Two cursors on one source would each reset it and consume
        // the other's events, and a peeked event would not stay
        // valid until its own cursor advances.
        for (std::size_t j = 0; j < i; ++j) {
            GMLAKE_ASSERT(cursors[j].src != &mSessions[i].source(),
                          "sessions '", mSessions[j].name(), "' and '",
                          mSessions[i].name(), "' share one source");
        }
        cursors[i].src = &mSessions[i].source();
        cursors[i].src->reset();
        cursors[i].localTime = mSessions[i].startTime();
        cursors[i].live.reserve(1024);
        cursors[i].result.name = mSessions[i].name();
        totalEvents += cursors[i].src->sizeHint();
    }

    // Observability: one lifecycle track per tenant plus the periodic
    // memory sampler. The recorder is captured once — it only reads
    // the simulated clock, so the replay (and every digest) is
    // byte-identical with and without it.
    obs::Recorder *rec = obs::active();
    std::vector<std::uint32_t> tenantTracks;
    std::unique_ptr<obs::MemorySampler> sampler;
    if (rec != nullptr) {
        std::vector<std::string> tenants;
        tenantTracks.reserve(mSessions.size());
        for (const Session &session : mSessions) {
            tenantTracks.push_back(
                rec->track("tenant:" + session.name()));
            tenants.push_back(session.name());
        }
        sampler = std::make_unique<obs::MemorySampler>(*rec, tenants);
        for (std::size_t i = 0; i < mSessions.size(); ++i) {
            rec->instant(obs::EvName::sessionStart,
                         obs::EventCat::engine, tenantTracks[i],
                         timeStart + mSessions[i].startTime(), i);
        }
    }
    auto obsSample = [&](bool force) {
        if (sampler == nullptr ||
            (!force && !sampler->due(mDevice.now())))
            return;
        obs::MemorySample s;
        const auto &stats = mAllocator.stats();
        s.activeBytes = stats.activeBytes();
        s.reservedBytes = stats.reservedBytes();
        const auto frag = mDevice.fragStats();
        s.inUseBytes = frag.inUse;
        s.largestHole = frag.largestHole;
        s.holeCount = frag.holeCount;
        s.freeBytes = frag.capacity - frag.inUse;
        s.holeBuckets = frag.holeBuckets;
        s.tenantLiveBytes.reserve(cursors.size());
        for (const Cursor &c : cursors)
            s.tenantLiveBytes.push_back(c.liveBytes);
        sampler->record(mDevice.now(), s);
    };

    // Resume seeds: warm-start cursors mid-timeline. The seeded
    // local time overrides the session's startTime — seeds carry
    // absolute local times, paired with the resumed frontier.
    const ResumeState *resume = mOptions.resume.get();
    GMLAKE_ASSERT(resume == nullptr ||
                      resume->sessions.size() == mSessions.size(),
                  "resume state does not match the run's sessions");
    for (std::size_t i = 0; resume != nullptr && i < cursors.size();
         ++i) {
        const SessionSeed &seed = resume->sessions[i];
        Cursor &c = cursors[i];
        c.localTime = seed.localTime;
        c.dead = seed.dead;
        c.seenStreams = seed.seenStreams;
        for (const SessionSeed::LiveEntry &entry : seed.live) {
            c.live.emplace(entry.tensor,
                           LiveAlloc{entry.id, entry.bytes});
            c.liveBytes += entry.bytes;
        }
        c.result.peakLiveBytes = c.liveBytes;
    }

    const std::size_t stride =
        mOptions.recordSeries
            ? std::max<std::size_t>(1, totalEvents / kMaxSeriesPoints)
            : 0;
    std::size_t index = 0;

    auto sample = [&](bool force) {
        if (!mOptions.recordSeries)
            return;
        if (!force && stride != 0 && index % stride != 0)
            return;
        const auto &stats = mAllocator.stats();
        result.series.push_back(
            SamplePoint{mDevice.now() - timeStart,
                        stats.activeBytes(), stats.reservedBytes()});
    };

    // A lone session needs no namespace and may carry any stream id
    // (e.g. replaying a recorded or pre-merged trace); the stride
    // bound only matters once several sessions must stay disjoint.
    const bool namespaced = cursors.size() > 1;
    auto remapStream = [namespaced](std::size_t sessionIndex,
                                    StreamId stream) {
        if (!namespaced)
            return stream;
        GMLAKE_ASSERT(stream < kSessionStreamStride,
                      "session stream id exceeds the namespace "
                      "stride: ", stream);
        return static_cast<StreamId>(sessionIndex) *
                   kSessionStreamStride +
               stream;
    };

    // kAnyStream is a sentinel, not a stream: recording it would turn
    // a later tenant-scoped sync into a device-wide one.
    auto noteStream = [](Cursor &cursor, StreamId stream) {
        if (stream == kAnyStream)
            return;
        if (std::find(cursor.seenStreams.begin(),
                      cursor.seenStreams.end(),
                      stream) == cursor.seenStreams.end())
            cursor.seenStreams.push_back(stream);
    };

    // Tenant-scoped failure: release a dead session's allocations —
    // the OS reclaims a killed process's device memory — so that
    // surviving tenants can use it. With nobody left to benefit the
    // release is skipped, matching the classic single-trace replay.
    auto reclaim = [&](Cursor &dying) {
        const bool someoneSurvives = std::any_of(
            cursors.begin(), cursors.end(), [&](const Cursor &c) {
                return &c != &dying && !c.finished();
            });
        if (!someoneSurvives)
            return;
        std::vector<workload::TensorId> ids;
        ids.reserve(dying.live.size());
        for (const auto &[tensor, allocation] : dying.live) {
            (void)allocation;
            ids.push_back(tensor);
        }
        std::sort(ids.begin(), ids.end());
        for (const workload::TensorId tensor : ids) {
            const alloc::AllocId id = dying.live.at(tensor).id;
            if (tier != nullptr)
                tier->onFreed(id);
            const Status s = mAllocator.deallocate(id);
            GMLAKE_ASSERT(s.ok(), "reclaim failed: ",
                          s.ok() ? "" : s.error().message);
            if (rec != nullptr) {
                const auto idx = static_cast<std::size_t>(
                    &dying - cursors.data());
                rec->instant(obs::EvName::tensorFree,
                             obs::EventCat::engine,
                             tenantTracks[idx], mDevice.now(),
                             tensor, id);
            }
        }
        dying.live.clear();
        dying.liveBytes = 0;
    };

    //! Merged virtual time already charged (resumes carry it over).
    Tick frontier = resume != nullptr ? resume->frontier : 0;
    bool sawFirstOom = false;

    // Tenant kill + OOM post-mortem: which allocator, what the
    // failing request wanted, the largest free physical extent, the
    // mapping-table shape, and what eviction could still have freed
    // — today's answer to "why did this tenant die".
    auto killOnOom = [&](Cursor &cursor, Bytes requested) {
        cursor.dead = true;
        cursor.result.oom = true;
        cursor.result.oomAt = mDevice.now() - timeStart;
        cursor.result.oomRequestedBytes = requested;
        cursor.result.oomLargestFree = mDevice.largestFreeExtent();
        cursor.result.oomEvictableBytes =
            tier != nullptr ? tier->evictableBytes()
                            : mAllocator.trimmableBytes();
        const std::string report = detail::concat(
            "session '", cursor.result.name, "' OOM-killed: ",
            "allocator=", mAllocator.name(), " requested=",
            formatBytes(requested), " largest_free_extent=",
            formatBytes(cursor.result.oomLargestFree),
            " mapped_extents=", mDevice.mappings().extentCount(),
            " evictable=",
            formatBytes(cursor.result.oomEvictableBytes));
        // A dead tenant in a colocation is an event worth shouting
        // about; a lone trace ending in OOM is often the measured
        // result itself, so it stays on the status channel.
        if (cursors.size() > 1)
            GMLAKE_WARN(report);
        else
            GMLAKE_INFORM(report);
        if (rec != nullptr) {
            // The instant mirrors the log line and the SessionResult
            // fields exactly (asserted by the agreement test).
            const auto idx = static_cast<std::size_t>(
                &cursor - cursors.data());
            rec->instant(obs::EvName::sessionOom,
                         obs::EventCat::engine, tenantTracks[idx],
                         mDevice.now(), requested,
                         cursor.result.oomLargestFree,
                         cursor.result.oomEvictableBytes);
        }
        if (!sawFirstOom) {
            sawFirstOom = true;
            result.oom = true;
            result.oomAt = cursor.result.oomAt;
        }
        reclaim(cursor);
    };

    // Chaos terminations: an injected non-OOM device fault the
    // session could not absorb, or a scripted tenant kill. Either way
    // the tenant dies like an OOM-killed one — allocations reclaimed,
    // survivors replay on — but is reported as aborted, not oom.
    auto killAborted = [&](Cursor &cursor, const std::string &why) {
        cursor.dead = true;
        cursor.result.aborted = true;
        cursor.result.endedAt = mDevice.now() - timeStart;
        if (cursors.size() > 1)
            GMLAKE_WARN("session '", cursor.result.name,
                        "' aborted: ", why);
        else
            GMLAKE_INFORM("session '", cursor.result.name,
                          "' aborted: ", why);
        if (rec != nullptr) {
            const auto idx = static_cast<std::size_t>(
                &cursor - cursors.data());
            rec->instant(obs::EvName::sessionAborted,
                         obs::EventCat::engine, tenantTracks[idx],
                         mDevice.now(), idx);
        }
        reclaim(cursor);
    };

    // A non-OOM error from the allocator or the offload tier: an
    // injected fault aborts the tenant (chaos trials count it), and
    // anything else is a simulator bug the run must not survive.
    auto killOnFault = [&](Cursor &cursor, const char *where,
                           const Error &error) {
        if (error.code != Errc::faultInjected)
            GMLAKE_PANIC(where, " error: ", error.message);
        killAborted(cursor, error.message);
    };

    // Scripted kills keyed by session index; a session is killed at
    // the first of its events whose local time reaches the mark.
    std::vector<std::optional<Tick>> killAt(cursors.size());
    for (const auto &[session, at] : mOptions.tenantKills) {
        GMLAKE_ASSERT(session < cursors.size(),
                      "tenant kill for unknown session ", session);
        killAt[session] = std::min(killAt[session].value_or(at), at);
    }

    // A session whose trace ends in compute leaves the pop loop
    // before its tail is charged; its endedAt is stamped at the
    // first merged-timeline instant not earlier than its end.
    // pendingTails counts the cursors in that state (each enters it
    // once, after its last event), so the scan runs only while one
    // is waiting.
    std::size_t pendingTails = 0;
    auto stampComputeTails = [&]() {
        if (pendingTails == 0)
            return;
        for (Cursor &c : cursors) {
            if (c.tailPending() && c.localTime <= frontier) {
                c.result.endedAt = mDevice.now() - timeStart;
                c.lastWasCompute = false;
                --pendingTails;
            }
        }
    };

    // Earliest pending event wins; session order breaks ties, so the
    // replay is a deterministic function of the sessions. The
    // (localTime, index) min-heap tracks exactly that order without
    // a per-event scan: only the running session's key can change,
    // so each other unfinished session keeps exactly one live entry
    // and the heap never holds a stale key. The running session is
    // off the heap; it keeps running while its key stays below the
    // heap's top, and goes back on only when another session's turn
    // comes.
    using ReadyKey = std::pair<Tick, std::size_t>;
    std::priority_queue<ReadyKey, std::vector<ReadyKey>,
                        std::greater<ReadyKey>>
        ready;
    for (std::size_t i = 0; i < cursors.size(); ++i) {
        cursors[i].refresh();
        if (!cursors[i].finished())
            ready.push({cursors[i].localTime, i});
    }

    std::size_t bestIndex = 0;
    bool keepRunning = false; //!< bestIndex is still the earliest
    while (keepRunning || !ready.empty()) {
        if (!keepRunning) {
            bestIndex = ready.top().second;
            ready.pop();
        }
        keepRunning = false;
        Cursor *best = &cursors[bestIndex];

        // Scripted kill: fires instead of the first event at or past
        // the mark, before any clock advance — the tenant just never
        // gets to run it. Entry not re-pushed; the session is dead.
        if (killAt[bestIndex] && !best->dead &&
            best->localTime >= *killAt[bestIndex]) {
            killAborted(*best,
                        detail::concat("scripted kill at local time ",
                                       formatTime(*killAt[bestIndex])));
            continue;
        }

        if (best->localTime > frontier) {
            mDevice.clock().advance(best->localTime - frontier);
            frontier = best->localTime;
        }
        obsSample(false);

        const workload::Event event = *best->next;
        best->src->advance();
        ++index;
        best->lastWasCompute =
            event.kind == workload::EventKind::compute;
        switch (event.kind) {
          case workload::EventKind::alloc: {
            // Streamed input never passed Trace::validate(): an
            // alloc of a live tensor fails before the allocator sees
            // it, like a free of an unknown one.
            const auto [slot, fresh] =
                best->live.try_emplace(event.tensor);
            GMLAKE_ASSERT(fresh, "trace allocates live tensor ",
                          event.tensor);
            const StreamId stream =
                event.stream == kAnyStream
                    ? kAnyStream
                    : remapStream(bestIndex, event.stream);
            noteStream(*best, stream);
            const auto got = mAllocator.allocate(event.bytes, stream);
            if (!got.ok()) {
                best->live.erase(slot);
                if (got.error().code == Errc::outOfMemory)
                    killOnOom(*best, event.bytes);
                else
                    killOnFault(*best, "allocator", got.error());
                break;
            }
            if (tier != nullptr)
                tier->onAllocated(got->id, event.bytes, bestIndex);
            if (rec != nullptr) {
                rec->instant(obs::EvName::tensorBind,
                             obs::EventCat::engine,
                             tenantTracks[bestIndex], mDevice.now(),
                             event.tensor, got->id, event.bytes);
            }
            slot->second = LiveAlloc{got->id, event.bytes};
            best->liveBytes += event.bytes;
            best->result.peakLiveBytes = std::max(
                best->result.peakLiveBytes, best->liveBytes);
            ++best->result.allocCount;
            sample(false);
            break;
          }
          case workload::EventKind::free: {
            const auto it = best->live.find(event.tensor);
            GMLAKE_ASSERT(it != best->live.end(),
                          "trace frees unknown tensor");
            if (tier != nullptr)
                tier->onFreed(it->second.id);
            const Status s = mAllocator.deallocate(it->second.id);
            GMLAKE_ASSERT(s.ok(), "deallocate failed: ",
                          s.ok() ? "" : s.error().message);
            if (rec != nullptr) {
                rec->instant(obs::EvName::tensorFree,
                             obs::EventCat::engine,
                             tenantTracks[bestIndex], mDevice.now(),
                             event.tensor, it->second.id);
            }
            best->liveBytes -= it->second.bytes;
            best->live.erase(it);
            ++best->result.freeCount;
            sample(false);
            break;
          }
          case workload::EventKind::compute:
            GMLAKE_ASSERT(event.computeNs >= 0,
                          "trace has negative compute time: ",
                          event.computeNs);
            best->localTime += event.computeNs;
            break;
          case workload::EventKind::touch: {
            const auto it = best->live.find(event.tensor);
            GMLAKE_ASSERT(it != best->live.end(),
                          "trace touches unknown tensor");
            if (tier == nullptr)
                break; // no offload: residency is a given
            const Status st = tier->touch(it->second.id);
            if (!st.ok()) {
                // The tenant's working set cannot be faulted back:
                // it dies exactly like an allocation OOM. A failed
                // copy lane under chaos aborts it instead.
                if (st.error().code == Errc::outOfMemory)
                    killOnOom(*best, it->second.bytes);
                else
                    killOnFault(*best, "offload touch", st.error());
            }
            break;
          }
          case workload::EventKind::prefetch: {
            const auto it = best->live.find(event.tensor);
            GMLAKE_ASSERT(it != best->live.end(),
                          "trace prefetches unknown tensor");
            if (tier != nullptr)
                tier->prefetch(it->second.id);
            break;
          }
          case workload::EventKind::iterationMark:
            ++best->result.iterationsDone;
            if (rec != nullptr) {
                rec->instant(obs::EvName::iterationMark,
                             obs::EventCat::engine,
                             tenantTracks[bestIndex], mDevice.now(),
                             best->result.iterationsDone);
            }
            sample(true);
            break;
          case workload::EventKind::streamSync:
            if (event.stream == kAnyStream) {
                if (cursors.size() == 1) {
                    // A lone tenant owns the whole device.
                    mAllocator.deviceSynchronize();
                } else {
                    // Tenant-scoped "device" sync: a process's
                    // cudaDeviceSynchronize only proves its own
                    // streams idle to the allocator it feeds.
                    for (const StreamId stream : best->seenStreams)
                        mAllocator.streamSynchronize(stream);
                }
            } else {
                const StreamId stream =
                    remapStream(bestIndex, event.stream);
                noteStream(*best, stream);
                mAllocator.streamSynchronize(stream);
            }
            break;
        }
        if (!best->dead)
            best->refresh();
        if (!best->lastWasCompute)
            best->result.endedAt = mDevice.now() - timeStart;
        if (best->tailPending())
            ++pendingTails;
        stampComputeTails();
        if (!best->finished()) {
            // Keys are unique (one per session index), so the whole
            // (localTime, index) comparison decides ties exactly as
            // the heap would.
            const ReadyKey key{best->localTime, bestIndex};
            if (ready.empty() || key < ready.top())
                keepRunning = true;
            else
                ready.push(key);
        }
    }

    // Capture mode: record each session's mid-timeline state instead
    // of charging trailing compute — a prefix cut at a time threshold
    // usually ends in compute whose cost the *tail* run charges when
    // (and only when) a later event pops, exactly like the
    // uninterrupted run. The frontier travels with the seeds so the
    // tail run knows how much virtual time is already on the clock.
    if (mOptions.captureResume) {
        auto resume = std::make_shared<ResumeState>();
        resume->frontier = frontier;
        resume->sessions.resize(cursors.size());
        for (std::size_t i = 0; i < cursors.size(); ++i) {
            SessionSeed &seed = resume->sessions[i];
            seed.localTime = cursors[i].localTime;
            seed.dead = cursors[i].dead;
            seed.seenStreams = cursors[i].seenStreams;
            seed.live.reserve(cursors[i].live.size());
            for (const auto &[tensor, allocation] : cursors[i].live) {
                seed.live.push_back(SessionSeed::LiveEntry{
                    tensor, allocation.id, allocation.bytes});
            }
            std::sort(seed.live.begin(), seed.live.end(),
                      [](const SessionSeed::LiveEntry &a,
                         const SessionSeed::LiveEntry &b) {
                          return a.tensor < b.tensor;
                      });
        }
        multi.resume = std::move(resume);
    }

    // Charge trailing compute (sessions whose traces end in compute
    // events never re-enter the pop loop), in timeline order so each
    // compute tail's endedAt lands when the frontier reaches it.
    if (!mOptions.captureResume) {
        std::vector<Cursor *> tails;
        for (Cursor &c : cursors) {
            if (!c.dead && c.localTime > frontier)
                tails.push_back(&c);
        }
        std::stable_sort(tails.begin(), tails.end(),
                         [](const Cursor *a, const Cursor *b) {
                             return a->localTime < b->localTime;
                         });
        for (const Cursor *c : tails) {
            if (c->localTime > frontier) {
                mDevice.clock().advance(c->localTime - frontier);
                frontier = c->localTime;
            }
            stampComputeTails();
        }
        stampComputeTails();
    }

    for (std::size_t i = 0; i < cursors.size(); ++i) {
        Cursor &c = cursors[i];
        // Iteration marks precede the iteration body, so a session
        // that died mid-iteration never finished the marked one.
        if (c.result.oom && c.result.iterationsDone > 0)
            --c.result.iterationsDone;
        result.iterationsDone += c.result.iterationsDone;
        if (tier != nullptr) {
            const auto s = tier->sessionStats(i);
            c.result.evictedBytes =
                s.evictedBytes - sessionStart[i].evictedBytes;
            c.result.faultedBytes =
                s.faultedBytes - sessionStart[i].faultedBytes;
        }
        if (c.result.aborted)
            ++result.abortedSessions;
        multi.sessions.push_back(std::move(c.result));
    }

    if (mDevice.faultInjector() != nullptr) {
        result.injectedFaults =
            mDevice.faultInjector()->counters().totalInjected() -
            injectedStart;
    }
    const auto recoveryEnd = mAllocator.recoveryCounters();
    result.rollbacks = recoveryEnd.rollbacks - recoveryStart.rollbacks;
    result.recovered = recoveryEnd.recovered - recoveryStart.recovered;

    const auto &stats = mAllocator.stats();
    result.simTime = mDevice.now() - timeStart;
    result.peakActive = stats.peakActiveBytes();
    result.peakReserved = stats.peakReservedBytes();
    result.utilization = stats.utilizationRatio();
    result.fragmentation = stats.fragmentationRatio();
    result.allocCount = stats.allocCount();
    result.freeCount = stats.freeCount();
    result.deviceApiTime = mDevice.counters().apiTime - apiTimeStart;
    result.vmmWallNs = mDevice.counters().vmmWallNs - vmmWallStart;
    result.stallNs = mDevice.counters().copyStallNs - copyStallStart;
    if (tier != nullptr) {
        result.evictedBytes = tier->stats().evictedBytes +
                              tier->stats().trimmedBytes -
                              evictedStart;
        result.faultedBytes =
            tier->stats().faultedBytes - faultedStart;
        result.offloadWallNs =
            tier->stats().offloadWallNs - offloadWallStart;
    }
    result.runWallNs = runWall.elapsedNs();

    if (config && result.iterationsDone > 0 && result.simTime > 0) {
        const double samples =
            static_cast<double>(result.iterationsDone) *
            static_cast<double>(config->batchSize) *
            static_cast<double>(config->gpus);
        result.samplesPerSec =
            samples / (static_cast<double>(result.simTime) * 1e-9);
    }
    sample(true);
    obsSample(true);
    return multi;
}

} // namespace gmlake::sim
