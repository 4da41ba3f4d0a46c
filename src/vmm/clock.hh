/**
 * @file
 * Simulated clock. All device API calls and workload compute phases
 * advance this clock; throughput numbers are derived from it.
 *
 * A plain counter: the clock belongs to its Device, and one thread
 * owns a device and everything that charges it.
 */

#ifndef GMLAKE_VMM_CLOCK_HH
#define GMLAKE_VMM_CLOCK_HH

#include "support/logging.hh"
#include "support/types.hh"

namespace gmlake::vmm
{

class SimClock
{
  public:
    Tick now() const { return mNow; }

    void
    advance(Tick delta)
    {
        GMLAKE_ASSERT(delta >= 0, "clock cannot go backwards");
        mNow += delta;
    }

    void reset() { mNow = 0; }

  private:
    Tick mNow = 0;
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_CLOCK_HH
