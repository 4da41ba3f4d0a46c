#include "workload/generators.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.hh"
#include "support/units.hh"

namespace gmlake::workload
{

// ----------------------------------------------------- KvServeSource

KvServeSource::KvServeSource(KvServeConfig config)
    : mCfg(std::move(config)), mRng(mCfg.seed)
{
    GMLAKE_ASSERT(mCfg.maxBatch >= 1 && mCfg.requests >= 1,
                  "serving config needs requests and a batch");
    GMLAKE_ASSERT(mCfg.blockTokens >= 1, "bad KV block size");
    GMLAKE_ASSERT(mCfg.streams >= 1, "serving needs a stream");
    GMLAKE_ASSERT(mCfg.maxContextTokens > mCfg.medianPromptTokens,
                  "context cap below the median prompt");
    init();
}

void
KvServeSource::init()
{
    mRng = Rng(mCfg.seed);
    mPending.clear();
    mHead = 0;
    mPrefixPool.clear();
    mActive.clear();
    mCounters = KvServeCounters{};
    mNextTensor = 1;
    mRound = 0;
    mWarmedUp = false;
    mShutdown = false;
    mDecodeRoundNs =
        mCfg.decodeRoundNs > 0
            ? mCfg.decodeRoundNs
            // One token across all layers, roughly parameter bytes
            // over HBM bandwidth (cf. servegen's decode model).
            : std::max<Tick>(
                  1, static_cast<Tick>(mCfg.model.params * 2.0 /
                                       1.5e3));
}

void
KvServeSource::reset()
{
    init();
}

Bytes
KvServeSource::blockBytes() const
{
    return kvBytesPerToken(mCfg.model) *
           static_cast<Bytes>(mCfg.blockTokens);
}

TensorId
KvServeSource::allocBlock(StreamId stream)
{
    const TensorId id = mNextTensor++;
    push(Event{EventKind::alloc, id, blockBytes(), 0, stream});
    ++mCounters.blockAllocs;
    return id;
}

void
KvServeSource::growTo(Request &req)
{
    const int privateTokens =
        std::max(0, req.contextTokens - req.sharedTokens);
    const int needed =
        (privateTokens + mCfg.blockTokens - 1) / mCfg.blockTokens;
    while (static_cast<int>(req.blocks.size()) < needed)
        req.blocks.push_back(allocBlock(req.stream));
}

void
KvServeSource::finishRequest(Request &req)
{
    for (const TensorId block : req.blocks)
        push(Event{EventKind::free, block, 0, 0, kDefaultStream});
    req.blocks.clear();
    ++mCounters.served;
}

void
KvServeSource::admitOne()
{
    Request req;
    req.stream = static_cast<StreamId>(
        1 + mCounters.admitted %
                static_cast<std::uint64_t>(mCfg.streams));
    const int prompt = std::clamp(
        static_cast<int>(
            mRng.logNormal(mCfg.medianPromptTokens, 0.7)),
        16, mCfg.maxContextTokens / 2);
    // Geometric generation length with the configured mean.
    const double p = 1.0 / mCfg.meanGenerateTokens;
    int gen = 1;
    while (!mRng.chance(p) && gen < mCfg.maxContextTokens - prompt)
        ++gen;
    req.promptTokens = prompt;
    req.contextTokens = prompt;
    req.targetTokens = prompt + gen;

    // Prefix-cache hit: the first blocks of the prompt are already
    // resident in the shared pool and are read, not reallocated.
    if (!mPrefixPool.empty() && mRng.chance(mCfg.prefixHitRate)) {
        const int promptBlocks =
            (prompt + mCfg.blockTokens - 1) / mCfg.blockTokens;
        const int cap = std::min(mCfg.maxSharedBlocks, promptBlocks);
        const int shared = static_cast<int>(mRng.uniformInt(
            1, static_cast<std::uint64_t>(std::max(1, cap))));
        req.sharedTokens =
            std::min(shared * mCfg.blockTokens, prompt);
        const std::size_t poolIndex =
            static_cast<std::size_t>(mRng.uniformInt(
                0, mPrefixPool.size() - 1));
        push(Event{EventKind::touch, mPrefixPool[poolIndex], 0, 0,
                   kDefaultStream});
        ++mCounters.prefixHits;
    }

    growTo(req); // prefill: the private prompt blocks, in one burst
    push(Event{EventKind::compute, 0, 0,
               mDecodeRoundNs * prompt / 8, kDefaultStream});
    mActive.push_back(std::move(req));
    ++mCounters.admitted;
}

void
KvServeSource::stepRound()
{
    while (mCounters.admitted < mCfg.requests &&
           static_cast<int>(mActive.size()) < mCfg.maxBatch)
        admitOne();

    ++mRound;
    if (mCfg.marksEveryRounds > 0 &&
        mRound % static_cast<std::uint64_t>(
                     mCfg.marksEveryRounds) == 0)
        push(Event{EventKind::iterationMark, 0, 0, 0,
                   kDefaultStream});
    push(Event{EventKind::compute, 0, 0, mDecodeRoundNs,
               kDefaultStream});

    // One decoded token per active request.
    for (std::size_t i = 0; i < mActive.size();) {
        Request &req = mActive[i];
        ++req.contextTokens;
        growTo(req);
        if (mCfg.touchEveryRound && !req.blocks.empty())
            push(Event{EventKind::touch, req.blocks.back(), 0, 0,
                       kDefaultStream});
        if (req.contextTokens >= req.targetTokens) {
            finishRequest(req);
            mActive.erase(mActive.begin() +
                          static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }

    // Preemption under pressure: evict the fattest request — its
    // blocks are freed now and prefill is redone (recompute-style
    // eviction), the block churn paging systems absorb.
    if (!mActive.empty() && mCounters.admitted < mCfg.requests &&
        mRng.chance(mCfg.preemptRate)) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < mActive.size(); ++i) {
            if (mActive[i].blocks.size() >
                mActive[victim].blocks.size())
                victim = i;
        }
        Request &v = mActive[victim];
        for (const TensorId block : v.blocks)
            push(Event{EventKind::free, block, 0, 0,
                       kDefaultStream});
        v.blocks.clear();
        v.contextTokens = v.promptTokens;
        ++mCounters.preempted;
    }
}

void
KvServeSource::refill()
{
    mPending.clear();
    mHead = 0;
    while (mPending.empty()) {
        if (!mWarmedUp) {
            // The resident prefix-cache pool lives for the whole
            // run; its blocks are what prefix hits share.
            for (int i = 0; i < mCfg.prefixPoolBlocks; ++i)
                mPrefixPool.push_back(allocBlock(kDefaultStream));
            mWarmedUp = true;
            continue;
        }
        if (mShutdown)
            return;
        if (mActive.empty() &&
            mCounters.admitted >= mCfg.requests) {
            for (const TensorId block : mPrefixPool)
                push(Event{EventKind::free, block, 0, 0,
                           kDefaultStream});
            mPrefixPool.clear();
            mShutdown = true;
            continue;
        }
        stepRound();
    }
}

const Event *
KvServeSource::peek()
{
    if (mHead == mPending.size())
        refill();
    return mHead == mPending.size() ? nullptr : &mPending[mHead];
}

void
KvServeSource::advance()
{
    GMLAKE_ASSERT(peek() != nullptr, "advance past end of stream");
    ++mHead;
    ++mCounters.emitted;
}

std::size_t
KvServeSource::sizeHint() const
{
    // Estimate only (series stride / progress): blocks in and out,
    // per-round touches, and the round compute/mark overhead.
    const double bt = mCfg.blockTokens;
    const double promptBlocks = mCfg.medianPromptTokens / bt + 1.0;
    const double genBlocks = mCfg.meanGenerateTokens / bt + 1.0;
    const double perRequest =
        2.0 * (promptBlocks + genBlocks) +
        (mCfg.touchEveryRound ? mCfg.meanGenerateTokens : 0) + 3.0;
    const double rounds =
        static_cast<double>(mCfg.requests) *
        mCfg.meanGenerateTokens / std::max(1, mCfg.maxBatch);
    return static_cast<std::size_t>(
        2.0 * mCfg.prefixPoolBlocks +
        static_cast<double>(mCfg.requests) * perRequest +
        1.1 * rounds);
}

} // namespace gmlake::workload
