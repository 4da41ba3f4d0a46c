/**
 * @file
 * Property test of the extent-based physical memory manager: random
 * create/release sequences are cross-checked op by op against a
 * naive reference model (linear first-fit over an address-sorted
 * hole list). Placement, OOM points, hole structure, and the O(1)
 * aggregates must all agree — the extent tree is an optimization,
 * never a behaviour change. Handle-recycling properties (slot reuse
 * with unique handle values) are asserted on the side. The run calls
 * (createRun / releaseRun) are driven in lockstep with a twin taking
 * the same steps as single calls, and must match it bit for bit;
 * fitCount must predict every createRun's stop without carving.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/extent_map.hh"
#include "vmm/phys_memory.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::FreeExtentMap;
using vmm::PhysMemory;

namespace
{

/**
 * The obviously-correct model: a sorted vector of holes, plus the
 * peak hole count as the maximum after each single release.
 */
class ReferencePhys
{
  public:
    explicit ReferencePhys(Bytes capacity)
    {
        mHoles.push_back({0, capacity});
    }

    /** First-fit create; nullopt on OOM. Returns the base. */
    std::optional<Bytes>
    create(Bytes size)
    {
        for (std::size_t i = 0; i < mHoles.size(); ++i) {
            if (mHoles[i].size < size)
                continue;
            const Bytes base = mHoles[i].base;
            if (mHoles[i].size == size) {
                mHoles.erase(mHoles.begin() +
                             static_cast<std::ptrdiff_t>(i));
            } else {
                mHoles[i].base += size;
                mHoles[i].size -= size;
            }
            mLive.emplace(base, size);
            return base;
        }
        return std::nullopt;
    }

    void
    release(Bytes base)
    {
        const auto it = mLive.find(base);
        ASSERT_NE(it, mLive.end());
        Bytes size = it->second;
        Bytes at = it->first;
        mLive.erase(it);
        // Merge with neighbours, keep address order.
        std::vector<Hole> merged;
        bool inserted = false;
        for (const Hole &h : mHoles) {
            if (!inserted && h.base > at) {
                merged.push_back({at, size});
                inserted = true;
            }
            merged.push_back(h);
        }
        if (!inserted)
            merged.push_back({at, size});
        mHoles.clear();
        for (const Hole &h : merged) {
            if (!mHoles.empty() &&
                mHoles.back().base + mHoles.back().size == h.base) {
                mHoles.back().size += h.size;
            } else {
                mHoles.push_back(h);
            }
        }
        mPeakHoles = std::max(mPeakHoles, mHoles.size());
    }

    std::size_t peakHoles() const { return mPeakHoles; }

    struct Hole
    {
        Bytes base;
        Bytes size;
    };
    const std::vector<Hole> &holes() const { return mHoles; }

    Bytes
    largestHole() const
    {
        Bytes largest = 0;
        for (const Hole &h : mHoles)
            largest = std::max(largest, h.size);
        return largest;
    }

    std::vector<std::pair<Bytes, Bytes>>
    liveRanges() const
    {
        std::vector<std::pair<Bytes, Bytes>> out(mLive.begin(),
                                                 mLive.end());
        return out;
    }

  private:
    std::vector<Hole> mHoles;
    std::map<Bytes, Bytes> mLive;
    std::size_t mPeakHoles = 1;
};

void
expectInLockstep(const PhysMemory &phys, const ReferencePhys &ref)
{
    // Hole structure: count, largest (the O(1) aggregate), the peak
    // and the exact extents.
    ASSERT_EQ(phys.holeCount(), ref.holes().size());
    ASSERT_EQ(phys.largestHole(), ref.largestHole());
    ASSERT_EQ(phys.peakHoleCount(), ref.peakHoles());
    ASSERT_EQ(phys.liveRanges(), ref.liveRanges());
    const auto extents = phys.holeExtents();
    ASSERT_EQ(extents.size(), ref.holes().size());
    for (std::size_t i = 0; i < extents.size(); ++i) {
        ASSERT_EQ(extents[i].base, ref.holes()[i].base) << "hole " << i;
        ASSERT_EQ(extents[i].size, ref.holes()[i].size) << "hole " << i;
    }
}

/** Every observable of two managers agrees. */
void
expectSamePhys(const PhysMemory &a, const PhysMemory &b)
{
    ASSERT_EQ(a.liveRanges(), b.liveRanges());
    const auto ha = a.holeExtents();
    const auto hb = b.holeExtents();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
        ASSERT_EQ(ha[i].base, hb[i].base) << "hole " << i;
        ASSERT_EQ(ha[i].size, hb[i].size) << "hole " << i;
    }
    ASSERT_EQ(a.holeCount(), b.holeCount());
    ASSERT_EQ(a.peakHoleCount(), b.peakHoleCount());
    ASSERT_EQ(a.inUse(), b.inUse());
    ASSERT_EQ(a.peakInUse(), b.peakInUse());
    ASSERT_EQ(a.liveHandles(), b.liveHandles());
    ASSERT_EQ(a.largestHole(), b.largestHole());
}

/** createRun() spelled as the loop of single creates it replaces. */
vmm::RunStatus
createLoop(PhysMemory &phys, Bytes size, std::span<PhysHandle> out)
{
    vmm::RunStatus run;
    for (; run.done < out.size(); ++run.done) {
        const auto h = phys.create(size);
        if (!h.ok()) {
            run.status = h.error();
            break;
        }
        out[run.done] = *h;
    }
    return run;
}

/** releaseRun() spelled as the loop of single releases. */
vmm::RunStatus
releaseLoop(PhysMemory &phys, std::span<const PhysHandle> handles)
{
    vmm::RunStatus run;
    for (; run.done < handles.size(); ++run.done) {
        run.status = phys.release(handles[run.done]);
        if (!run.ok())
            break;
    }
    return run;
}

} // namespace

TEST(PhysMemoryFirstFit, RandomChurnMatchesNaiveReference)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1337ULL}) {
        const Bytes capacity = 1_GiB;
        PhysMemory phys(capacity);
        ReferencePhys ref(capacity);
        Rng rng(seed);

        struct LiveHandle
        {
            PhysHandle handle;
            Bytes refBase;
        };
        std::vector<LiveHandle> live;
        std::set<PhysHandle> everIssued;

        for (int op = 0; op < 4000; ++op) {
            const bool doCreate =
                live.empty() || rng.uniformInt(0, 99) < 55;
            if (doCreate) {
                // Mostly small, occasionally huge (prodding OOM).
                const Bytes size =
                    rng.uniformInt(0, 19) == 0
                        ? 2_MiB * rng.uniformInt(100, 300)
                        : 2_MiB * rng.uniformInt(1, 24);
                const auto got = phys.create(size);
                const auto expected = ref.create(size);
                ASSERT_EQ(got.ok(), expected.has_value())
                    << "seed " << seed << " op " << op;
                if (!got.ok()) {
                    EXPECT_EQ(got.code(), Errc::outOfMemory);
                } else {
                    // Same placement: the extent tree must pick the
                    // same lowest-base hole as the linear scan.
                    ASSERT_EQ(*phys.sizeOf(*got), size);
                    // Handle values are never recycled, even though
                    // the slots are.
                    EXPECT_TRUE(everIssued.insert(*got).second)
                        << "recycled handle value";
                    live.push_back(LiveHandle{*got, *expected});
                }
            } else {
                const std::size_t victim = static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1));
                const LiveHandle handle = live[victim];
                live[victim] = live.back();
                live.pop_back();
                ASSERT_TRUE(phys.release(handle.handle).ok());
                ref.release(handle.refBase);
                // The released handle is dead immediately.
                EXPECT_FALSE(phys.isLive(handle.handle));
                EXPECT_EQ(phys.sizeOf(handle.handle).code(),
                          Errc::invalidValue);
                EXPECT_EQ(phys.release(handle.handle).code(),
                          Errc::invalidValue);
            }
            ASSERT_NO_FATAL_FAILURE(expectInLockstep(phys, ref))
                << "seed " << seed << " op " << op;
        }

        // Drain: everything releases cleanly back to one hole.
        for (const LiveHandle &handle : live) {
            ASSERT_TRUE(phys.release(handle.handle).ok());
            ref.release(handle.refBase);
        }
        ASSERT_NO_FATAL_FAILURE(expectInLockstep(phys, ref));
        EXPECT_EQ(phys.holeCount(), 1u);
        EXPECT_EQ(phys.largestHole(), capacity);
        EXPECT_EQ(phys.inUse(), 0u);
    }
}

TEST(PhysMemoryFirstFit, ExtentMapQueriesMatchLinearScan)
{
    // Direct FreeExtentMap check: firstFit/nextFit answer exactly
    // like a linear scan of the extents, and largest() tracks the
    // maximum through heavy churn (the augmentation stays in
    // lockstep with the tree).
    FreeExtentMap extentMap;
    std::map<Bytes, Bytes> shadow;
    Rng rng(99);

    for (int op = 0; op < 6000; ++op) {
        const int dice = rng.uniformInt(0, 9);
        if (dice < 6 || shadow.empty()) {
            // Insert a fresh extent in an unoccupied spot.
            const Bytes base = 2_MiB * rng.uniformInt(0, 4095);
            const Bytes size = 2_MiB * rng.uniformInt(1, 32);
            bool clear = true;
            for (const auto &[b, sz] : shadow) {
                if (base + size > b && b + sz > base) {
                    clear = false;
                    break;
                }
            }
            if (!clear)
                continue;
            // Coalescing insert mirrors a map merge.
            auto next = shadow.lower_bound(base);
            Bytes at = base;
            Bytes sz = size;
            if (next != shadow.end() && at + sz == next->first) {
                sz += next->second;
                next = shadow.erase(next);
            }
            if (next != shadow.begin()) {
                auto prev = std::prev(next);
                if (prev->first + prev->second == at) {
                    at = prev->first;
                    sz += prev->second;
                    shadow.erase(prev);
                }
            }
            shadow.emplace(at, sz);
            extentMap.insertCoalescing(base, size);
        } else {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(0, shadow.size() - 1));
            auto it = std::next(shadow.begin(),
                                static_cast<std::ptrdiff_t>(pick));
            ASSERT_TRUE(extentMap.erase(it->first));
            shadow.erase(it);
        }

        ASSERT_EQ(extentMap.count(), shadow.size());
        Bytes largest = 0;
        Bytes total = 0;
        for (const auto &[b, sz] : shadow) {
            largest = std::max(largest, sz);
            total += sz;
        }
        ASSERT_EQ(extentMap.largest(), largest);
        ASSERT_EQ(extentMap.totalBytes(), total);

        // Random first-fit probes against the linear answer.
        for (int probe = 0; probe < 3; ++probe) {
            const Bytes want = 2_MiB * rng.uniformInt(1, 40);
            std::optional<Bytes> expected;
            for (const auto &[b, sz] : shadow) {
                if (sz >= want) {
                    expected = b;
                    break;
                }
            }
            const auto got = extentMap.firstFit(want);
            ASSERT_EQ(got.has_value(), expected.has_value());
            if (got) {
                ASSERT_EQ(got->base, *expected);
            }
            // nextFit resumes past the first candidate.
            if (got) {
                std::optional<Bytes> expectedNext;
                for (const auto &[b, sz] : shadow) {
                    if (b > got->base && sz >= want) {
                        expectedNext = b;
                        break;
                    }
                }
                const auto next =
                    extentMap.nextFit(got->base, want);
                ASSERT_EQ(next.has_value(),
                          expectedNext.has_value());
                if (next) {
                    ASSERT_EQ(next->base, *expectedNext);
                }
            }
        }
    }

    // The in-order extents match the shadow exactly.
    const auto extents = extentMap.extents();
    ASSERT_EQ(extents.size(), shadow.size());
    std::size_t i = 0;
    for (const auto &[b, sz] : shadow) {
        EXPECT_EQ(extents[i].base, b);
        EXPECT_EQ(extents[i].size, sz);
        ++i;
    }
}

TEST(PhysMemoryFirstFit, RunCallsMatchSingleCallsInLockstep)
{
    // One manager takes run calls, its twin the equivalent single
    // calls; the reference model follows the twin's accepted steps.
    // A small device with mixed chunk sizes keeps the holes ragged,
    // so runs straddle holes, stop on OOM and release in stretches.
    for (const std::uint64_t seed : {3ULL, 11ULL, 42ULL, 2024ULL}) {
        const Bytes capacity = 256_MiB;
        PhysMemory runs(capacity);
        PhysMemory twin(capacity);
        ReferencePhys ref(capacity);
        Rng rng(seed);

        std::map<PhysHandle, Bytes> live; // handle -> reference base
        std::vector<std::vector<PhysHandle>> groups;
        std::vector<PhysHandle> dead;
        std::size_t oomRuns = 0;
        std::size_t stoppedReleases = 0;
        std::size_t stretchReleases = 0;

        for (int op = 0; op < 1500; ++op) {
            if (groups.empty() || rng.uniformInt(0, 99) < 50) {
                const Bytes size = 2_MiB * rng.uniformInt(1, 3);
                const std::size_t n = rng.uniformInt(1, 24);
                std::vector<PhysHandle> got(n, kNullHandle);
                std::vector<PhysHandle> want(n, kNullHandle);
                const std::size_t fits = runs.fitCount(size, n);
                const auto r = runs.createRun(size, got);
                const auto w = createLoop(twin, size, want);
                ASSERT_EQ(r.done, w.done) << "seed " << seed << " op " << op;
                ASSERT_EQ(fits, r.done) << "seed " << seed << " op " << op;
                ASSERT_EQ(r.status.code(), w.status.code());
                if (!r.ok()) {
                    ASSERT_EQ(r.status.error().message,
                              w.status.error().message);
                }
                ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
                for (std::size_t i = 0; i < w.done; ++i) {
                    const auto base = ref.create(size);
                    ASSERT_TRUE(base.has_value());
                    live.emplace(want[i], *base);
                }
                if (!r.ok()) {
                    ++oomRuns;
                    ASSERT_FALSE(ref.create(size).has_value());
                }
                got.resize(r.done);
                if (!got.empty())
                    groups.push_back(std::move(got));
            } else {
                // Release a created group, in creation (ascending
                // within a hole), reversed or shuffled order, now and
                // then spiked with a stale, repeated or mapped handle.
                const std::size_t g = static_cast<std::size_t>(
                    rng.uniformInt(0, groups.size() - 1));
                std::vector<PhysHandle> list = groups[g];
                groups[g] = groups.back();
                groups.pop_back();
                const int order = static_cast<int>(rng.uniformInt(0, 2));
                if (order == 1) {
                    std::reverse(list.begin(), list.end());
                } else if (order == 2) {
                    for (std::size_t i = list.size(); i > 1; --i) {
                        std::swap(list[i - 1],
                                  list[rng.uniformInt(0, i - 1)]);
                    }
                }
                PhysHandle mapped = kNullHandle;
                const int spike = static_cast<int>(rng.uniformInt(0, 9));
                const auto at = static_cast<std::ptrdiff_t>(
                    rng.uniformInt(0, list.size()));
                if (spike == 0 && !dead.empty()) {
                    list.insert(list.begin() + at,
                                dead[rng.uniformInt(0, dead.size() - 1)]);
                } else if (spike == 1) {
                    list.insert(list.begin() + at,
                                list[rng.uniformInt(0, list.size() - 1)]);
                } else if (spike == 2) {
                    mapped = list[rng.uniformInt(0, list.size() - 1)];
                    ASSERT_TRUE(runs.addMapRef(mapped).ok());
                    ASSERT_TRUE(twin.addMapRef(mapped).ok());
                }

                const auto r = runs.releaseRun(list);
                const auto w = releaseLoop(twin, list);
                ASSERT_EQ(r.done, w.done) << "seed " << seed << " op " << op;
                ASSERT_EQ(r.status.code(), w.status.code());
                for (std::size_t i = 0; i < w.done; ++i) {
                    const auto it = live.find(list[i]);
                    ASSERT_NE(it, live.end());
                    ref.release(it->second);
                    live.erase(it);
                    dead.push_back(list[i]);
                }
                if (!r.ok())
                    ++stoppedReleases;
                if (r.done > 1)
                    ++stretchReleases;
                if (mapped != kNullHandle) {
                    ASSERT_TRUE(runs.dropMapRef(mapped).ok());
                    ASSERT_TRUE(twin.dropMapRef(mapped).ok());
                }
                // Whatever the stop left live goes back to the pool.
                std::vector<PhysHandle> rest;
                for (std::size_t i = w.done; i < list.size(); ++i) {
                    if (live.count(list[i]) != 0 &&
                        std::find(rest.begin(), rest.end(), list[i]) ==
                            rest.end())
                        rest.push_back(list[i]);
                }
                if (!rest.empty())
                    groups.push_back(std::move(rest));
            }
            ASSERT_NO_FATAL_FAILURE(expectSamePhys(runs, twin))
                << "seed " << seed << " op " << op;
            ASSERT_NO_FATAL_FAILURE(expectInLockstep(runs, ref))
                << "seed " << seed << " op " << op;
        }
        // The walk reached every shape it is meant to cover.
        EXPECT_GT(oomRuns, 0u) << "seed " << seed;
        EXPECT_GT(stoppedReleases, 0u) << "seed " << seed;
        EXPECT_GT(stretchReleases, 0u) << "seed " << seed;

        // Handles created after all that still agree.
        std::vector<PhysHandle> got(8, kNullHandle);
        std::vector<PhysHandle> want(8, kNullHandle);
        const auto r = runs.createRun(2_MiB, got);
        const auto w = createLoop(twin, 2_MiB, want);
        EXPECT_EQ(r.done, w.done);
        EXPECT_EQ(got, want);
    }
}

TEST(PhysMemoryFirstFit, ReleaseStretchKeepsThePeakOfSingleReleases)
{
    // [h0 h1 h2 h3 | hole]: releasing h0..h2 ascending (h3 stays
    // live) peaks at two holes right after h0, then merges down; the
    // descending release of the same stretch next to the tail hole
    // never adds a hole. The run must report the same peaks.
    for (const bool descending : {false, true}) {
        PhysMemory runs(16_MiB);
        PhysMemory twin(16_MiB);
        std::vector<PhysHandle> handles(4, kNullHandle);
        ASSERT_TRUE(runs.createRun(2_MiB, handles).ok());
        std::vector<PhysHandle> twins(4, kNullHandle);
        ASSERT_TRUE(createLoop(twin, 2_MiB, twins).ok());
        ASSERT_EQ(handles, twins);

        std::vector<PhysHandle> stretch =
            descending ? std::vector<PhysHandle>{handles[3], handles[2],
                                                 handles[1]}
                       : std::vector<PhysHandle>{handles[0], handles[1],
                                                 handles[2]};
        ASSERT_TRUE(runs.releaseRun(stretch).ok());
        ASSERT_TRUE(releaseLoop(twin, stretch).ok());
        ASSERT_NO_FATAL_FAILURE(expectSamePhys(runs, twin));
        EXPECT_EQ(runs.peakHoleCount(), descending ? 1u : 2u);
    }
}
