// Unit tests for resource governance (support/budget.hpp): BudgetTracker
// limit enforcement, thread-local BudgetScope installation, the free charge
// helpers, and the obs counters that make budget exhaustion visible in
// --stats.

#include <gtest/gtest.h>

#include <functional>

#include "obs/registry.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"

namespace {

using namespace prox::support;

Diagnostic expectExhausted(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
    return e.diagnostic();
  }
  ADD_FAILURE() << "expected DiagnosticError(ResourceExhausted)";
  return {};
}

TEST(Budget, UnlimitedByDefault) {
  BudgetTracker t(ResourceBudget{});
  t.chargeNodes(1u << 20, "test");
  t.chargeTables(1u << 20, "test");
  t.chargeRecords(1u << 20, "test");
  t.checkRss("test");
  EXPECT_EQ(t.nodes(), 1u << 20);
}

TEST(Budget, NodeLimitThrowsTypedErrorAndCountsIt) {
  const auto before = prox::obs::counter("support.budget.exceeded").value();
  ResourceBudget b;
  b.maxNodes = 3;
  BudgetTracker t(b);
  t.chargeNodes(3, "test.site");
  const auto d = expectExhausted([&] { t.chargeNodes(1, "test.site"); });
  EXPECT_EQ(d.site, "test.site");
  EXPECT_NE(d.message.find("nodes"), std::string::npos);
  if (prox::obs::kStatsCompiledIn) {
    EXPECT_GE(prox::obs::counter("support.budget.exceeded").value(),
              before + 1);
  }
}

TEST(Budget, TableAndRecordLimitsAreIndependent) {
  ResourceBudget b;
  b.maxTables = 2;
  b.maxRecords = 5;
  BudgetTracker t(b);
  t.chargeTables(2, "test");
  t.chargeRecords(5, "test");
  expectExhausted([&] { t.chargeTables(1, "test"); });
  expectExhausted([&] { t.chargeRecords(1, "test"); });
  // An unlimited axis stays unlimited.
  t.chargeNodes(1000, "test");
}

TEST(Budget, RssCeilingTripsAgainstRealUsage) {
  ASSERT_GT(currentRssBytes(), 0u) << "statm unavailable on this platform";
  ResourceBudget b;
  b.maxRssBytes = 1;  // far below any real process footprint
  BudgetTracker t(b);
  const auto d = expectExhausted([&] { t.checkRss("test.rss"); });
  EXPECT_NE(d.message.find("resident memory"), std::string::npos);
}

TEST(Budget, GenerousRssCeilingPasses) {
  ResourceBudget b;
  b.maxRssBytes = ~std::size_t{0};
  BudgetTracker t(b);
  for (int i = 0; i < 64; ++i) t.checkRss("test");  // crosses sample strides
}

TEST(Budget, ScopeInstallsAndRestoresThreadLocally) {
  EXPECT_EQ(currentBudget(), nullptr);
  ResourceBudget b;
  b.maxNodes = 1;
  BudgetTracker t(b);
  {
    BudgetScope scope(&t);
    EXPECT_EQ(currentBudget(), &t);
    budgetChargeNodes(1, "test");
    expectExhausted([] { budgetChargeNodes(1, "test"); });
    {
      BudgetScope nullScope(nullptr);  // null install keeps the outer budget
      EXPECT_EQ(currentBudget(), &t);
    }
    EXPECT_EQ(currentBudget(), &t);
  }
  EXPECT_EQ(currentBudget(), nullptr);
  // With no scope installed every helper is a no-op.
  budgetChargeNodes(1u << 30, "test");
  budgetChargeTables(1u << 30, "test");
  budgetChargeRecords(1u << 30, "test");
  budgetCheckRss("test");
}

TEST(Budget, ChargesAccumulateAcrossCalls) {
  ResourceBudget b;
  b.maxRecords = 10;
  BudgetTracker t(b);
  for (int i = 0; i < 10; ++i) t.chargeRecords(1, "test");
  EXPECT_EQ(t.records(), 10u);
  expectExhausted([&] { t.chargeRecords(1, "test"); });
}

}  // namespace
