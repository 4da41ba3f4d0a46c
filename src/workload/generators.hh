/**
 * @file
 * Generator-backed event sources: workloads synthesized on the fly,
 * one event per pull, with O(live-state) memory — never a
 * materialized trace. This is what makes 10⁷-event serving-day
 * experiments replayable: the generator holds the live requests and
 * their KV blocks, not the event history. Events are synthesized a
 * decode round at a time into one reused buffer, so a pull
 * allocates nothing.
 *
 * KvServeSource models paged-attention KV-cache serving (vLLM
 * style, cf. the paper's Section 6 discussion): requests arrive into
 * a continuous batch, their KV caches grow one fixed-size block at a
 * time as tokens decode, finished requests free their blocks, memory
 * pressure preempts victims (blocks evicted, prefill redone), and a
 * resident prefix-cache pool absorbs a share of prompt prefixes
 * (shared blocks are never reallocated). Compared to servegen.hh's
 * realloc-and-copy model this trades large variable buffers for a
 * churn of uniform blocks — the allocation pattern paging was
 * invented for.
 */

#ifndef GMLAKE_WORKLOAD_GENERATORS_HH
#define GMLAKE_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <vector>

#include "support/rng.hh"
#include "workload/event_source.hh"
#include "workload/model_zoo.hh"
#include "workload/servegen.hh"

namespace gmlake::workload
{

struct KvServeConfig
{
    ModelSpec model;
    /** Maximum concurrently decoding requests. */
    int maxBatch = 48;
    /** Total requests to serve before draining. */
    std::uint64_t requests = 2048;
    /** Median prompt length in tokens (lognormal, sigma 0.7). */
    int medianPromptTokens = 384;
    /** Mean generated tokens per request (geometric). */
    int meanGenerateTokens = 160;
    /** Hard cap on a request's total context. */
    int maxContextTokens = 4096;
    /** KV block granularity in tokens (the "page" size). */
    int blockTokens = 64;
    /** Probability a request's prompt prefix hits the shared pool. */
    double prefixHitRate = 0.35;
    /** Resident shared prefix pool, in blocks (alive all run). */
    int prefixPoolBlocks = 48;
    /** Cap on shared prefix blocks per request. */
    int maxSharedBlocks = 6;
    /** Per-round probability of preempting (evicting) one request:
     *  its private blocks are freed and prefill redone. */
    double preemptRate = 0.01;
    /** Emit a touch of each request's hot block every decode round
     *  (drives offload-tier recency when a tier is attached). */
    bool touchEveryRound = true;
    /** Decode rounds between iterationMark events. */
    int marksEveryRounds = 64;
    /** Requests round-robin across this many streams (ids 1..n). */
    int streams = 4;
    /** Simulated ns per decode round; 0 derives from the model. */
    Tick decodeRoundNs = 0;
    std::uint64_t seed = 42;
};

/** Aggregate progress counters of a KvServeSource. */
struct KvServeCounters
{
    std::uint64_t emitted = 0;     //!< events handed out
    std::uint64_t admitted = 0;    //!< requests entered the batch
    std::uint64_t served = 0;      //!< requests completed
    std::uint64_t preempted = 0;   //!< eviction victims
    std::uint64_t prefixHits = 0;  //!< prompts served from the pool
    std::uint64_t blockAllocs = 0; //!< KV blocks allocated
};

class KvServeSource final : public EventSource
{
  public:
    explicit KvServeSource(KvServeConfig config);

    const Event *peek() override;
    void advance() override;
    std::size_t sizeHint() const override;
    void reset() override;

    const KvServeConfig &config() const { return mCfg; }
    const KvServeCounters &counters() const { return mCounters; }
    /** Bytes of one KV block under this config. */
    Bytes blockBytes() const;

  private:
    struct Request
    {
        std::vector<TensorId> blocks; //!< private KV blocks, in order
        int sharedTokens = 0;   //!< prompt prefix held by the pool
        int promptTokens = 0;
        int contextTokens = 0;
        int targetTokens = 0;   //!< prompt + planned generation
        StreamId stream = kDefaultStream;
    };

    void init();
    void refill();
    void stepRound();
    void admitOne();
    /** Allocate blocks until @p req covers its private context. */
    void growTo(Request &req);
    void finishRequest(Request &req);

    void push(const Event &event) { mPending.push_back(event); }
    TensorId allocBlock(StreamId stream);

    KvServeConfig mCfg;
    Rng mRng;
    /**
     * Events of the current round; mPending[mHead] is the one peek()
     * hands out. A round is refilled only once every event in it has
     * been consumed, so the refill clears the buffer and reuses its
     * capacity: the stream allocates nothing per event.
     */
    std::vector<Event> mPending;
    std::size_t mHead = 0;
    std::vector<TensorId> mPrefixPool;
    std::vector<Request> mActive;
    KvServeCounters mCounters;
    TensorId mNextTensor = 1;
    std::uint64_t mRound = 0;
    Tick mDecodeRoundNs = 0;
    bool mWarmedUp = false;
    bool mShutdown = false;
};

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_GENERATORS_HH
