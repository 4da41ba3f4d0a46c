#include "calibration.hh"

#include <chrono>
#include <map>

namespace gmlake::bench
{

namespace
{

constexpr int kOps = 30'000;
constexpr std::uint64_t kKeys = 30'000;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::uint64_t
Calibrator::loopNs()
{
    const std::uint64_t start = nowNs();
    {
        // The same keys every time: every loop does identical work.
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        std::map<std::uint64_t, std::uint64_t> tree;
        for (int i = 0; i < kOps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tree[x % kKeys] += static_cast<std::uint64_t>(i);
            if (i % 3 == 0)
                tree.erase(tree.begin());
        }
        mSink += tree.size();
    }
    const std::uint64_t ns = nowNs() - start;
    mSamples.push_back(static_cast<double>(ns));
    return ns;
}

ScaledClock::ScaledClock(Calibrator &calibrator)
    : mCalibrator(calibrator),
      mLastLoopNs(calibrator.loopNs()),
      mSampledAt(nowNs())
{
}

void
ScaledClock::add(std::uint64_t ns)
{
    mPendingNs += ns;
    if (nowNs() - mSampledAt >= kResampleNs)
        resample();
}

double
ScaledClock::total()
{
    if (mPendingNs > 0)
        resample();
    return mScaledNs;
}

void
ScaledClock::resample()
{
    const std::uint64_t loop = mCalibrator.loopNs();
    const double around =
        (static_cast<double>(mLastLoopNs) + static_cast<double>(loop)) /
        2.0;
    mScaledNs += static_cast<double>(mPendingNs) *
                 Calibrator::kReferenceLoopNs / around;
    mPendingNs = 0;
    mLastLoopNs = loop;
    mSampledAt = nowNs();
}

} // namespace gmlake::bench
