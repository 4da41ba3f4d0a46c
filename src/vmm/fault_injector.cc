#include "vmm/fault_injector.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace gmlake::vmm
{

namespace
{

std::optional<FaultApi>
apiFromName(const std::string &name)
{
    if (name == "create")
        return FaultApi::memCreate;
    if (name == "map")
        return FaultApi::memMap;
    if (name == "mapbatch")
        return FaultApi::memMapBatch;
    if (name == "setaccess")
        return FaultApi::memSetAccess;
    if (name == "copyd2h")
        return FaultApi::copyD2H;
    if (name == "copyh2d")
        return FaultApi::copyH2D;
    return std::nullopt;
}

} // namespace

const char *
faultApiName(FaultApi api)
{
    switch (api) {
    case FaultApi::memCreate: return "create";
    case FaultApi::memMap: return "map";
    case FaultApi::memMapBatch: return "mapbatch";
    case FaultApi::memSetAccess: return "setaccess";
    case FaultApi::copyD2H: return "copyd2h";
    case FaultApi::copyH2D: return "copyh2d";
    }
    GMLAKE_PANIC("unknown FaultApi ", static_cast<int>(api));
}

bool
FaultPlan::empty() const
{
    if (!capacityLosses.empty())
        return false;
    for (const FaultRule &r : rules)
        if (r.probability > 0.0 || !r.nthCalls.empty())
            return false;
    return true;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    // memCreate failures model capacity pressure: default to OOM so
    // the reclaim ladder treats them like any other exhausted device.
    plan.rule(FaultApi::memCreate).code = Errc::outOfMemory;
    const std::string what = "fault spec '" + spec + "'";

    std::stringstream clauses(spec);
    std::string clause;
    while (std::getline(clauses, clause, ';')) {
        if (clause.empty())
            continue;
        const std::size_t colon = clause.find(':');
        if (colon == std::string::npos)
            GMLAKE_FATAL("fault spec '", spec, "': clause '", clause,
                         "' missing ':' (want api:key=value,...)");
        const std::string apiName = clause.substr(0, colon);

        if (apiName == "cap") {
            CapacityLoss loss;
            bool haveT = false;
            bool haveB = false;
            std::stringstream fields(clause.substr(colon + 1));
            std::string field;
            while (std::getline(fields, field, ',')) {
                const std::size_t eq = field.find('=');
                if (eq == std::string::npos)
                    GMLAKE_FATAL("fault spec '", spec, "': field '",
                                 field, "' missing '='");
                const std::string key = field.substr(0, eq);
                const std::string value = field.substr(eq + 1);
                if (key == "t") {
                    loss.at = static_cast<Tick>(parseInteger(
                        what, value, 0,
                        std::numeric_limits<Tick>::max(), true));
                    haveT = true;
                } else if (key == "b") {
                    loss.bytes = parseInteger(
                        what, value, 1,
                        std::numeric_limits<Bytes>::max(), true);
                    haveB = true;
                } else {
                    GMLAKE_FATAL("fault spec '", spec,
                                 "': unknown cap key '", key, "'");
                }
            }
            if (!haveT || !haveB)
                GMLAKE_FATAL("fault spec '", spec,
                             "': cap needs t=<tick>,b=<bytes>");
            plan.capacityLosses.push_back(loss);
            continue;
        }

        const auto api = apiFromName(apiName);
        if (!api.has_value())
            GMLAKE_FATAL("fault spec '", spec, "': unknown api '",
                         apiName, "'");
        FaultRule &rule = plan.rule(*api);
        std::stringstream fields(clause.substr(colon + 1));
        std::string field;
        while (std::getline(fields, field, ',')) {
            const std::size_t eq = field.find('=');
            if (eq == std::string::npos)
                GMLAKE_FATAL("fault spec '", spec, "': field '", field,
                             "' missing '='");
            const std::string key = field.substr(0, eq);
            const std::string value = field.substr(eq + 1);
            if (key == "p") {
                rule.probability = parseReal(what, value, 0.0, 1.0);
            } else if (key == "n") {
                // 1-based call ordinal.
                rule.nthCalls.push_back(parseInteger(
                    what, value, 1,
                    std::numeric_limits<std::uint64_t>::max(), true));
            } else if (key == "code") {
                if (value != "oom" && value != "fault")
                    GMLAKE_FATAL("fault spec '", spec,
                                 "': code must be oom or fault");
                rule.code = value == "oom" ? Errc::outOfMemory
                                           : Errc::faultInjected;
            } else {
                GMLAKE_FATAL("fault spec '", spec, "': unknown key '",
                             key, "'");
            }
        }
    }

    for (FaultRule &rule : plan.rules) {
        std::sort(rule.nthCalls.begin(), rule.nthCalls.end());
        rule.nthCalls.erase(
            std::unique(rule.nthCalls.begin(), rule.nthCalls.end()),
            rule.nthCalls.end());
    }
    std::stable_sort(plan.capacityLosses.begin(),
                     plan.capacityLosses.end(),
                     [](const CapacityLoss &a, const CapacityLoss &b) {
                         return a.at < b.at;
                     });
    return plan;
}

std::string
FaultPlan::describe() const
{
    if (empty())
        return "no faults";
    std::ostringstream out;
    bool first = true;
    for (std::size_t i = 0; i < kFaultApiCount; ++i) {
        const FaultRule &r = rules[i];
        if (r.probability <= 0.0 && r.nthCalls.empty())
            continue;
        if (!first)
            out << "; ";
        first = false;
        out << faultApiName(static_cast<FaultApi>(i)) << ":";
        bool inner = false;
        if (r.probability > 0.0) {
            out << " p=" << formatDouble(r.probability, 4);
            inner = true;
        }
        if (!r.nthCalls.empty()) {
            out << (inner ? "," : "") << " n={";
            for (std::size_t j = 0; j < r.nthCalls.size(); ++j)
                out << (j ? "," : "") << r.nthCalls[j];
            out << "}";
        }
    }
    for (const CapacityLoss &loss : capacityLosses) {
        if (!first)
            out << "; ";
        first = false;
        out << "cap: -" << formatBytes(loss.bytes) << " @ "
            << formatTime(loss.at);
    }
    return out.str();
}

std::uint64_t
FaultInjector::Counters::totalInjected() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t n : injected)
        total += n;
    return total;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : mPlan(std::move(plan)), mRng(seed)
{
}

FaultInjector::RunDraw
FaultInjector::drawRun(std::span<const FaultApi> apis, std::size_t calls)
{
    RunDraw draw;
    for (; draw.passed < calls; ++draw.passed) {
        const FaultApi api = apis[draw.passed % apis.size()];
        const std::size_t idx = static_cast<std::size_t>(api);
        const std::uint64_t ordinal = ++mCounters.calls[idx];
        const FaultRule &rule = mPlan.rules[idx];
        bool fail = std::binary_search(rule.nthCalls.begin(),
                                       rule.nthCalls.end(), ordinal);
        // Draw the RNG only when the rule is probabilistic, so plans
        // with pure nth-call triggers consume no randomness and two
        // plans that differ only in triggers share the same
        // probabilistic stream.
        if (!fail && rule.probability > 0.0)
            fail = mRng.chance(rule.probability);
        if (!fail)
            continue;
        ++mCounters.injected[idx];
        std::ostringstream what;
        what << "injected fault: " << faultApiName(api) << " call #"
             << ordinal;
        draw.error = makeError(rule.code, what.str());
        break;
    }
    return draw;
}

Bytes
FaultInjector::pendingCapacityLoss(Tick now)
{
    while (mNextLoss < mPlan.capacityLosses.size() &&
           mPlan.capacityLosses[mNextLoss].at <= now) {
        mPendingLoss += mPlan.capacityLosses[mNextLoss].bytes;
        ++mNextLoss;
    }
    return mPendingLoss;
}

void
FaultInjector::noteCapacityLost(Bytes bytes)
{
    GMLAKE_ASSERT(bytes <= mPendingLoss,
                  "capacity loss over-acknowledged");
    mPendingLoss -= bytes;
    mCounters.capacityLost += bytes;
}

std::optional<Tick>
FaultInjector::nextLossAt() const
{
    if (mNextLoss == mPlan.capacityLosses.size())
        return std::nullopt;
    return mPlan.capacityLosses[mNextLoss].at;
}

} // namespace gmlake::vmm
