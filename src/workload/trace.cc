#include "workload/trace.hh"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "support/logging.hh"
#include "workload/event_source.hh"

namespace gmlake::workload
{

void
Trace::append(Event event)
{
    if (event.kind == EventKind::alloc) {
        ++mStats.allocCount;
        mStats.totalAllocBytes += event.bytes;
        if (event.bytes > mStats.maxAllocBytes)
            mStats.maxAllocBytes = event.bytes;
    } else if (event.kind == EventKind::iterationMark) {
        ++mStats.iterations;
    }
    mEvents.push_back(event);
}

void
Trace::validate() const
{
    std::unordered_set<TensorId> live;
    for (const Event &e : mEvents) {
        switch (e.kind) {
          case EventKind::alloc:
            GMLAKE_ASSERT(e.bytes > 0, "zero-byte alloc in trace");
            GMLAKE_ASSERT(live.insert(e.tensor).second,
                          "tensor allocated twice: ", e.tensor);
            break;
          case EventKind::free:
            GMLAKE_ASSERT(live.erase(e.tensor) == 1,
                          "free of non-live tensor: ", e.tensor);
            break;
          case EventKind::compute:
            GMLAKE_ASSERT(e.computeNs >= 0, "negative compute time");
            break;
          case EventKind::touch:
          case EventKind::prefetch:
            GMLAKE_ASSERT(live.count(e.tensor) == 1,
                          "touch/prefetch of non-live tensor: ",
                          e.tensor);
            break;
          case EventKind::iterationMark:
          case EventKind::streamSync:
            break;
        }
    }
}

void
Trace::save(std::ostream &os) const
{
    os << "gmlake-trace-v3 " << mEvents.size() << "\n";
    for (const Event &e : mEvents) {
        switch (e.kind) {
          case EventKind::alloc:
            os << "a " << e.tensor << " " << e.bytes << " "
               << e.stream << "\n";
            break;
          case EventKind::free:
            os << "f " << e.tensor << "\n";
            break;
          case EventKind::compute:
            os << "c " << e.computeNs << "\n";
            break;
          case EventKind::iterationMark:
            os << "i\n";
            break;
          case EventKind::streamSync:
            os << "y " << e.stream << "\n";
            break;
          case EventKind::touch:
            os << "t " << e.tensor << "\n";
            break;
          case EventKind::prefetch:
            os << "p " << e.tensor << "\n";
            break;
        }
    }
}

Trace
Trace::load(std::istream &is)
{
    std::string magic;
    std::size_t count = 0;
    is >> magic >> count;
    // v2 added per-event stream ids; v3 added touch/prefetch events.
    const bool v2plus = magic == "gmlake-trace-v2" ||
                        magic == "gmlake-trace-v3";
    if (!v2plus && magic != "gmlake-trace-v1")
        GMLAKE_FATAL("bad trace header: ", magic);
    Trace trace;
    for (std::size_t i = 0; i < count; ++i) {
        char tag = 0;
        is >> tag;
        Event e;
        switch (tag) {
          case 'a':
            e.kind = EventKind::alloc;
            is >> e.tensor >> e.bytes;
            if (v2plus)
                is >> e.stream;
            break;
          case 't':
            e.kind = EventKind::touch;
            is >> e.tensor;
            break;
          case 'p':
            e.kind = EventKind::prefetch;
            is >> e.tensor;
            break;
          case 'y':
            e.kind = EventKind::streamSync;
            is >> e.stream;
            break;
          case 'f':
            e.kind = EventKind::free;
            is >> e.tensor;
            break;
          case 'c':
            e.kind = EventKind::compute;
            is >> e.computeNs;
            break;
          case 'i':
            e.kind = EventKind::iterationMark;
            break;
          default:
            GMLAKE_FATAL("bad trace tag: ", tag);
        }
        if (!is)
            GMLAKE_FATAL("truncated trace file");
        trace.append(e);
    }
    trace.validate();
    return trace;
}

void
Trace::assertAlive() const
{
#ifndef NDEBUG
    GMLAKE_ASSERT(mCookie.alive(),
                  "borrowed Trace was destroyed while a Session or "
                  "EventSource still references it");
#endif
}

Event
remapEvent(Event event, const TraceNamespace &ns)
{
    switch (event.kind) {
      case EventKind::alloc:
        event.tensor += ns.tensorOffset;
        if (event.stream != kAnyStream)
            event.stream += ns.streamOffset;
        break;
      case EventKind::free:
      case EventKind::touch:
      case EventKind::prefetch:
        event.tensor += ns.tensorOffset;
        break;
      case EventKind::streamSync:
        if (event.stream != kAnyStream)
            event.stream += ns.streamOffset;
        break;
      case EventKind::compute:
      case EventKind::iterationMark:
        break;
    }
    return event;
}

Trace
remapTrace(const Trace &trace, const TraceNamespace &ns)
{
    Trace out;
    for (const Event &e : trace.events())
        out.append(remapEvent(e, ns));
    return out;
}

Trace
mergeTraces(const std::vector<const Trace *> &traces)
{
    // The interleave itself lives in MergeSource (the streaming
    // cursor form); this wrapper merely adapts Trace pointers and
    // materializes the merged stream for callers that want one.
    std::vector<std::unique_ptr<EventSource>> sources;
    sources.reserve(traces.size());
    for (const Trace *trace : traces) {
        GMLAKE_ASSERT(trace != nullptr, "null trace in merge");
        sources.push_back(std::make_unique<VectorSource>(trace));
    }
    MergeSource merge(std::move(sources));
    return materialize(merge);
}

TensorId
TraceBuilder::alloc(Bytes bytes, StreamId stream)
{
    GMLAKE_ASSERT(bytes > 0, "zero-byte tensor");
    GMLAKE_ASSERT(stream != kAnyStream,
                  "cannot allocate on the sentinel stream");
    const TensorId id = mNextTensor++;
    mLive.emplace(id, bytes);
    mLiveBytes += bytes;
    mTrace.append(Event{EventKind::alloc, id, bytes, 0, stream});
    return id;
}

void
TraceBuilder::free(TensorId id)
{
    auto it = mLive.find(id);
    GMLAKE_ASSERT(it != mLive.end(), "free of non-live tensor ", id);
    mLiveBytes -= it->second;
    mLive.erase(it);
    mTrace.append(Event{EventKind::free, id, 0, 0, kDefaultStream});
}

void
TraceBuilder::compute(Tick ns)
{
    if (ns <= 0)
        return;
    mTrace.append(Event{EventKind::compute, 0, 0, ns,
                        kDefaultStream});
}

void
TraceBuilder::iterationMark()
{
    mTrace.append(Event{EventKind::iterationMark, 0, 0, 0,
                        kDefaultStream});
}

void
TraceBuilder::streamSync(StreamId stream)
{
    mTrace.append(Event{EventKind::streamSync, 0, 0, 0, stream});
}

void
TraceBuilder::touch(TensorId id)
{
    GMLAKE_ASSERT(mLive.count(id) == 1,
                  "touch of non-live tensor ", id);
    mTrace.append(Event{EventKind::touch, id, 0, 0, kDefaultStream});
}

void
TraceBuilder::prefetch(TensorId id)
{
    GMLAKE_ASSERT(mLive.count(id) == 1,
                  "prefetch of non-live tensor ", id);
    mTrace.append(
        Event{EventKind::prefetch, id, 0, 0, kDefaultStream});
}

void
TraceBuilder::freeAll()
{
    // Deterministic order: ascending tensor id.
    std::vector<TensorId> ids;
    ids.reserve(mLive.size());
    for (const auto &[id, bytes] : mLive) {
        (void)bytes;
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (TensorId id : ids)
        free(id);
}

Trace
TraceBuilder::take()
{
    mTrace.validate();
    return std::move(mTrace);
}

} // namespace gmlake::workload
