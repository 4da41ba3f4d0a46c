/**
 * @file
 * Deterministic VMM fault injection.
 *
 * A FaultPlan describes, immutably, which device API calls should fail
 * and when: per-API Bernoulli probabilities, exact nth-call triggers,
 * and scheduled mid-run capacity losses. A FaultInjector pairs one plan
 * with a seeded RNG and per-API call counters, so a fixed (plan, seed)
 * reproduces the exact same fault sequence call for call.
 *
 * The Device consults its injector (when one is installed) after the
 * usual counter bump and cost charge but before the real operation, and
 * returns the injected error instead of succeeding. A chunk run draws
 * all its calls at once (drawRun), exactly the draws of the loop of
 * single calls it stands for. With no injector
 * installed the check is a single null test — zero overhead and
 * bit-identical behavior to a build without this file.
 */

#ifndef GMLAKE_VMM_FAULT_INJECTOR_HH
#define GMLAKE_VMM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/expected.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace gmlake::vmm
{

/** Device entry points a plan can target. */
enum class FaultApi : std::uint8_t
{
    memCreate,
    memMap,
    memMapBatch,
    memSetAccess,
    copyD2H,
    copyH2D,
};

inline constexpr std::size_t kFaultApiCount = 6;

/** Short stable name ("create", "map", ...) for specs and reports. */
const char *faultApiName(FaultApi api);

/** Per-API failure rule. Empty rule (p = 0, no triggers) never fires. */
struct FaultRule
{
    /** Independent per-call failure probability in [0, 1]. */
    double probability = 0.0;
    /** Exact 1-based call ordinals that fail (sorted, deduplicated). */
    std::vector<std::uint64_t> nthCalls;
    /**
     * Error code an injected failure carries. memCreate defaults to
     * outOfMemory — indistinguishable from real capacity pressure, so
     * the reclaim ladder absorbs it; every other API defaults to
     * faultInjected so callers can tell sabotage from simulator bugs.
     */
    Errc code = Errc::faultInjected;
};

/** One scheduled capacity loss: @p bytes vanish at simulated @p at. */
struct CapacityLoss
{
    Tick at = 0;
    Bytes bytes = 0;
};

/**
 * Immutable description of what should fail. Built programmatically or
 * parsed from a compact spec string (see parse()).
 */
struct FaultPlan
{
    std::array<FaultRule, kFaultApiCount> rules{};
    /** Sorted by `at`; applied lazily from memCreate(). */
    std::vector<CapacityLoss> capacityLosses;

    FaultRule &rule(FaultApi api) { return rules[static_cast<std::size_t>(api)]; }
    const FaultRule &rule(FaultApi api) const
    {
        return rules[static_cast<std::size_t>(api)];
    }

    /** True when no rule can ever fire and no loss is scheduled. */
    bool empty() const;

    /**
     * Parse a spec string: semicolon-separated clauses, each
     * `<api>:<key>=<value>[,<key>=<value>...]`.
     *
     *   api   create | map | mapbatch | setaccess | copyd2h | copyh2d
     *         | cap (capacity loss)
     *   keys  p=<prob>      failure probability per call
     *         n=<ordinal>   exact nth call fails (repeatable)
     *         code=oom      override the injected error code
     *   cap   t=<tick>,b=<bytes>
     *
     * t, b and n take a K/M/G/T suffix (x1024 steps); p is in [0, 1],
     * n and b are at least 1, and every value must fit its 64-bit
     * field (support/flags.hh parses them).
     * Example: "create:p=0.02;map:n=5,n=9;cap:t=1000000,b=2G".
     * Malformed specs are fatal (user input, fail loudly).
     */
    static FaultPlan parse(const std::string &spec);

    /** One-line human-readable summary of the plan. */
    std::string describe() const;
};

/**
 * Pairs a plan with a seeded RNG and call counters. Deterministic:
 * outcomes depend only on (plan, seed, per-API call ordinal). Owned
 * by its Device, and like the device used from one thread.
 */
class FaultInjector
{
  public:
    struct Counters
    {
        std::array<std::uint64_t, kFaultApiCount> calls{};
        std::array<std::uint64_t, kFaultApiCount> injected{};
        /** Bytes actually carved out by scheduled capacity losses. */
        Bytes capacityLost = 0;

        std::uint64_t totalInjected() const;
    };

    /** Outcome of drawRun(): calls that passed, then the failure. */
    struct RunDraw
    {
        std::size_t passed = 0;
        /** Error of call @c passed, which failed; nullopt if none. */
        std::optional<Error> error;
    };

    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /**
     * Record @p calls calls that cycle through @p apis in order (a
     * chunk run: each chunk calls every API of @p apis once) and
     * decide their fate, consuming exactly the ordinals and RNG
     * draws of that many onCall()s, up to and including the first
     * call that fails. Nothing is drawn past it.
     */
    RunDraw drawRun(std::span<const FaultApi> apis, std::size_t calls);

    /**
     * Record one call of @p api and decide its fate: the error to
     * inject, or nullopt to let the real operation proceed.
     */
    std::optional<Error>
    onCall(FaultApi api)
    {
        return drawRun({&api, 1}, 1).error;
    }

    /**
     * Bytes of scheduled capacity loss that have come due by @p now
     * and not yet been carved. Losses the device could not realize
     * (fragmentation) stay pending and are retried on the next query.
     */
    Bytes pendingCapacityLoss(Tick now);

    /** Report @p bytes successfully carved (reduces the pending debt). */
    void noteCapacityLost(Bytes bytes);

    /** When the next scheduled loss comes due; nullopt if none is left. */
    std::optional<Tick> nextLossAt() const;

    const Counters &counters() const { return mCounters; }
    const FaultPlan &plan() const { return mPlan; }

  private:
    const FaultPlan mPlan;
    Rng mRng;
    Counters mCounters;
    /** Next capacityLosses entry not yet converted into pending debt. */
    std::size_t mNextLoss = 0;
    Bytes mPendingLoss = 0;
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_FAULT_INJECTOR_HH
