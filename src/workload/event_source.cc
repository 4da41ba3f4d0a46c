#include "workload/event_source.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace gmlake::workload
{

VectorSource::VectorSource(Trace trace)
    : mOwned(std::make_shared<const Trace>(std::move(trace))),
      mTrace(mOwned.get())
{
}

VectorSource::VectorSource(const Trace *trace)
    : mOwned(nullptr), mTrace(trace)
{
    GMLAKE_ASSERT(trace != nullptr, "source borrows a null trace");
}

const Event *
VectorSource::peek()
{
    mTrace->assertAlive();
    return mNext < mTrace->size() ? &mTrace->events()[mNext]
                                  : nullptr;
}

void
VectorSource::advance()
{
    GMLAKE_ASSERT(mNext < mTrace->size(),
                  "advance past end of trace");
    ++mNext;
}

void
VectorSource::reset()
{
    mTrace->assertAlive();
    mNext = 0;
}

MergeSource::MergeSource(
    std::vector<std::unique_ptr<EventSource>> sources)
{
    GMLAKE_ASSERT(!sources.empty(), "merge of zero sources");
    mCursors.reserve(sources.size());
    for (std::unique_ptr<EventSource> &source : sources) {
        GMLAKE_ASSERT(source != nullptr, "null source in merge");
        mCursors.push_back(Cursor{std::move(source), 0, {}});
    }
}

void
MergeSource::refill()
{
    const bool multi = mCursors.size() > 1;

    auto noteStream = [](Cursor &cursor, StreamId stream) {
        if (std::find(cursor.seenStreams.begin(),
                      cursor.seenStreams.end(),
                      stream) == cursor.seenStreams.end())
            cursor.seenStreams.push_back(stream);
    };

    while (mPending.empty() && !mDrained) {
        // Earliest local timeline wins; input order breaks ties.
        Cursor *best = nullptr;
        for (Cursor &c : mCursors) {
            if (c.source->peek() == nullptr)
                continue;
            if (best == nullptr || c.localTime < best->localTime)
                best = &c;
        }
        if (best == nullptr) {
            // Trailing compute so the merged stream lasts as long as
            // the longest tenant (input order, like mergeTraces).
            for (const Cursor &c : mCursors) {
                if (c.localTime > mMergedTime) {
                    mPending.push_back(
                        Event{EventKind::compute, 0, 0,
                              c.localTime - mMergedTime,
                              kDefaultStream});
                    mMergedTime = c.localTime;
                }
            }
            mDrained = true;
            break;
        }
        const Event e = *best->source->peek();
        best->source->advance();
        if (e.kind == EventKind::compute) {
            // Tenants compute concurrently: only the part that moves
            // the merged frontier forward costs merged time, emitted
            // lazily when some tenant's next event reaches it.
            best->localTime += e.computeNs;
            continue;
        }
        if (best->localTime > mMergedTime) {
            mPending.push_back(Event{EventKind::compute, 0, 0,
                                     best->localTime - mMergedTime,
                                     kDefaultStream});
            mMergedTime = best->localTime;
        }
        if (multi && e.kind == EventKind::streamSync &&
            e.stream == kAnyStream) {
            // Tenant-scoped device sync, exactly like the engine:
            // one tenant's device-wide sync only proves its own
            // streams idle, not a co-tenant's.
            for (const StreamId stream : best->seenStreams) {
                mPending.push_back(
                    Event{EventKind::streamSync, 0, 0, 0, stream});
            }
            continue;
        }
        if ((e.kind == EventKind::alloc ||
             e.kind == EventKind::streamSync) &&
            e.stream != kAnyStream) {
            noteStream(*best, e.stream);
        }
        mPending.push_back(e);
    }
}

const Event *
MergeSource::peek()
{
    if (mPending.empty())
        refill();
    return mPending.empty() ? nullptr : &mPending.front();
}

void
MergeSource::advance()
{
    GMLAKE_ASSERT(peek() != nullptr, "advance past end of stream");
    mPending.pop_front();
}

std::size_t
MergeSource::sizeHint() const
{
    std::size_t total = 0;
    for (const Cursor &c : mCursors)
        total += c.source->sizeHint();
    return total;
}

void
MergeSource::reset()
{
    for (Cursor &c : mCursors) {
        c.source->reset();
        c.localTime = 0;
        c.seenStreams.clear();
    }
    mPending.clear();
    mMergedTime = 0;
    mDrained = false;
}

Trace
materialize(EventSource &source)
{
    Trace trace;
    for (const Event *e = source.peek(); e != nullptr;
         source.advance(), e = source.peek())
        trace.append(*e);
    return trace;
}

} // namespace gmlake::workload
