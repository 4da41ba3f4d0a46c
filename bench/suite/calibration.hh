/**
 * @file
 * Host-speed calibration: scales measured host time to a fixed
 * reference speed of the machine.
 *
 * A shared machine's speed drifts by a third within minutes (other
 * tenants' load on the shared cache and memory), and a slow spell can
 * cover a whole benchmark run, so no amount of repetition inside one
 * run cancels it. The benchmark therefore times a fixed calibration
 * loop between pieces of measured work and scales each piece by how
 * fast the loop ran around it.
 *
 * The loop churns a std::map: node allocation and pointer chasing
 * like the simulator's own pools, maps and mapping tables, so it
 * slows when they do. Of the loops tried (an L2-resident chase plus
 * arithmetic, pure chases over 4 and 32 MiB, arithmetic alone), this
 * one tracked the simulator best. It is benchmark code compiled with
 * fixed flags, so a change to the simulator cannot change its speed;
 * a change of the standard library or of the global allocator can,
 * and needs the benchmark re-measured.
 */

#ifndef GMLAKE_BENCH_SUITE_CALIBRATION_HH
#define GMLAKE_BENCH_SUITE_CALIBRATION_HH

#include <cstdint>
#include <vector>

namespace gmlake::bench
{

class Calibrator
{
  public:
    /**
     * Time of one loop at the reference speed: roughly its time on the
     * machine the benchmark was defined on, when that machine was
     * quiet. Scaled host times are host times at this speed.
     */
    static constexpr double kReferenceLoopNs = 4.0e6;

    /** Run the calibration loop once; returns its host ns. */
    std::uint64_t loopNs();

    /** Every loop time measured so far. */
    const std::vector<double> &samples() const { return mSamples; }

  private:
    /** Keeps the loop's result, so it cannot be optimised away. */
    std::uint64_t mSink = 0;
    std::vector<double> mSamples;
};

/**
 * Sums host time measured in pieces, each scaled to the reference
 * speed by the calibration loops run just before and just after it.
 * A loop runs at construction, at total(), and between pieces once
 * kResampleNs have passed since the last, so drift slower than that
 * is cancelled.
 */
class ScaledClock
{
  public:
    static constexpr std::uint64_t kResampleNs = 100'000'000;

    explicit ScaledClock(Calibrator &calibrator);

    /** Count @p ns of measured work done since the last loop. */
    void add(std::uint64_t ns);

    /**
     * Scale what is pending (running a loop if anything is); returns
     * the scaled ns of every piece added so far.
     */
    double total();

  private:
    void resample();

    Calibrator &mCalibrator;
    std::uint64_t mLastLoopNs;
    std::uint64_t mSampledAt;
    std::uint64_t mPendingNs = 0;
    double mScaledNs = 0.0;
};

} // namespace gmlake::bench

#endif // GMLAKE_BENCH_SUITE_CALIBRATION_HH
