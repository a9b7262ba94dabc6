// Tests of the lock-order deadlock detector (common/deadlock_detector.h)
// and its medrelax::Mutex hooks. The graph layer is always compiled, so
// the order-tracking tests run in every preset; the death test needs the
// Mutex hooks and is skipped unless MEDRELAX_DEADLOCK_DEBUG is on (the
// default/debug/asan/tsan presets all enable it).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/deadlock_detector.h"
#include "medrelax/common/mutex.h"

namespace medrelax {
namespace {

TEST(DeadlockDetector, RegistersSitesByNameOnce) {
  DeadlockDetector& detector = DeadlockDetector::Instance();
  const int a = detector.RegisterSite("DetectorTest::RegisterA");
  const int b = detector.RegisterSite("DetectorTest::RegisterB");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, detector.RegisterSite("DetectorTest::RegisterA"));
  EXPECT_EQ(detector.SiteName(a), "DetectorTest::RegisterA");
  EXPECT_EQ(detector.SiteName(b), "DetectorTest::RegisterB");
  const int sites = detector.num_sites();
  EXPECT_GT(sites, std::max(a, b));
  EXPECT_EQ(detector.RegisterSite("DetectorTest::RegisterB"), b);
  EXPECT_EQ(detector.num_sites(), sites) << "a known name adds no site";
}

TEST(DeadlockDetector, RecordsAcquisitionOrderEdges) {
  DeadlockDetector& detector = DeadlockDetector::Instance();
  const int outer = detector.RegisterSite("DetectorTest::EdgeOuter");
  const int inner = detector.RegisterSite("DetectorTest::EdgeInner");

  detector.OnAcquire(outer);
  detector.OnAcquire(inner);  // nested: records outer -> inner
  detector.OnRelease(inner);
  detector.OnRelease(outer);

  EXPECT_TRUE(detector.HasEdge(outer, inner));
  EXPECT_FALSE(detector.HasEdge(inner, outer));
  EXPECT_TRUE(detector.PathExists(outer, inner));
  EXPECT_TRUE(detector.HeldByThisThread().empty());
}

TEST(DeadlockDetector, TransitiveOrderIsAPath) {
  DeadlockDetector& detector = DeadlockDetector::Instance();
  const int a = detector.RegisterSite("DetectorTest::ChainA");
  const int b = detector.RegisterSite("DetectorTest::ChainB");
  const int c = detector.RegisterSite("DetectorTest::ChainC");

  detector.OnAcquire(a);
  detector.OnAcquire(b);
  detector.OnRelease(b);
  detector.OnRelease(a);
  detector.OnAcquire(b);
  detector.OnAcquire(c);
  detector.OnRelease(c);
  detector.OnRelease(b);

  EXPECT_TRUE(detector.PathExists(a, c));
  EXPECT_FALSE(detector.PathExists(c, a));
  EXPECT_FALSE(detector.HasEdge(a, c));  // transitive, not direct
}

TEST(DeadlockDetector, SameSiteNestingIsNotAnOrder) {
  // Instance-granularity limitation, by design: two mutexes sharing a
  // site name (e.g. cache shards) produce no self-edge when nested.
  DeadlockDetector& detector = DeadlockDetector::Instance();
  const int site = detector.RegisterSite("DetectorTest::SameSite");
  detector.OnAcquire(site);
  detector.OnAcquire(site);
  detector.OnRelease(site);
  detector.OnRelease(site);
  EXPECT_FALSE(detector.HasEdge(site, site));
}

#ifdef MEDRELAX_DEADLOCK_DEBUG

TEST(DeadlockDetector, MutexAcquisitionsFeedTheGraph) {
  DeadlockDetector& detector = DeadlockDetector::Instance();
  Mutex outer{"DetectorTest::HookOuter"};
  Mutex inner{"DetectorTest::HookInner"};
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
    EXPECT_EQ(detector.HeldByThisThread().size(), 2u);
  }
  EXPECT_TRUE(detector.HasEdge(
      detector.RegisterSite("DetectorTest::HookOuter"),
      detector.RegisterSite("DetectorTest::HookInner")));
  EXPECT_TRUE(detector.HeldByThisThread().empty());
}

TEST(DeadlockDetector, SharedMutexReadersAreOrderedToo) {
  DeadlockDetector& detector = DeadlockDetector::Instance();
  Mutex outer{"DetectorTest::ReaderOuter"};
  SharedMutex inner{"DetectorTest::ReaderInner"};
  {
    MutexLock hold_outer(outer);
    ReaderLock hold_inner(inner);
  }
  EXPECT_TRUE(detector.HasEdge(
      detector.RegisterSite("DetectorTest::ReaderOuter"),
      detector.RegisterSite("DetectorTest::ReaderInner")));
}

TEST(DeadlockDetectorDeathTest, SeededInversionAbortsNamingBothSites) {
  // A -> B in one scope, then B -> A in another: a classic order
  // inversion. No thread ever blocks — the detector must abort purely on
  // the observed orders, naming both acquisition sites in the report.
  Mutex a{"DeathTest::SiteA"};
  Mutex b{"DeathTest::SiteB"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  EXPECT_DEATH(
      {
        MutexLock hold_b(b);
        MutexLock hold_a(a);
      },
      "lock-order inversion: acquiring \"DeathTest::SiteA\" while holding "
      "\"DeathTest::SiteB\"");
}

#else

TEST(DeadlockDetector, HooksCompiledOut) {
  GTEST_SKIP() << "MEDRELAX_DEADLOCK_DEBUG is off: Mutex does not feed the "
                  "detector in this build";
}

#endif  // MEDRELAX_DEADLOCK_DEBUG

}  // namespace
}  // namespace medrelax
