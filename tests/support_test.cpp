// Unit tests for the fault-tolerance support layer: typed diagnostics,
// Status/DiagnosticLog, the deterministic fault-injection plan, and the
// DualTable clamp-distance reporting the STA degraded mode relies on.

#include <gtest/gtest.h>

#include <cmath>

#include "dual_table_reference.hpp"
#include "model/dual_input.hpp"
#include "support/diagnostic.hpp"
#include "support/fault_injection.hpp"

namespace {

using namespace prox;
using support::Diagnostic;
using support::DiagnosticError;
using support::DiagnosticLog;
using support::FaultKind;
using support::FaultPlan;
using support::FaultSpec;
using support::Severity;
using support::Status;
using support::StatusCode;

TEST(Diagnostic, CodeAndSeverityNames) {
  EXPECT_STREQ(support::statusCodeName(StatusCode::Ok), "ok");
  EXPECT_STREQ(support::statusCodeName(StatusCode::SingularMatrix),
               "singular-matrix");
  EXPECT_STREQ(support::statusCodeName(StatusCode::NewtonNonConverge),
               "newton-nonconverge");
  EXPECT_STREQ(support::statusCodeName(StatusCode::TimestepUnderflow),
               "timestep-underflow");
  EXPECT_STREQ(support::statusCodeName(StatusCode::TableOutOfRange),
               "table-out-of-range");
  EXPECT_STREQ(support::statusCodeName(StatusCode::TableMissing),
               "table-missing");
  EXPECT_STREQ(support::statusCodeName(StatusCode::ParseError), "parse-error");
  EXPECT_STREQ(support::severityName(Severity::Warning), "warning");
  EXPECT_STREQ(support::severityName(Severity::Error), "error");
}

TEST(Diagnostic, ToStringCarriesContext) {
  const Diagnostic d =
      support::makeDiagnostic(StatusCode::NewtonNonConverge, "no convergence")
          .withSite("spice.newton")
          .withGate("u42")
          .withPin(1)
          .withLine(7)
          .withSweepPoint(100e-12, -50e-12);
  const std::string s = d.toString();
  EXPECT_NE(s.find("spice.newton"), std::string::npos);
  EXPECT_NE(s.find("no convergence"), std::string::npos);
  EXPECT_NE(s.find("newton-nonconverge"), std::string::npos);
  EXPECT_NE(s.find("u42"), std::string::npos);
  EXPECT_NE(s.find("line 7"), std::string::npos);
  EXPECT_FALSE(d.ok());
}

TEST(Diagnostic, ErrorIsRuntimeErrorWithTypedCode) {
  const DiagnosticError e(
      support::makeDiagnostic(StatusCode::TableMissing, "no table")
          .withPin(2));
  const std::runtime_error& base = e;  // legacy catch sites keep working
  EXPECT_NE(std::string(base.what()).find("no table"), std::string::npos);
  EXPECT_EQ(e.code(), StatusCode::TableMissing);
  EXPECT_EQ(e.severity(), Severity::Error);
  EXPECT_EQ(e.diagnostic().pin, 2);
}

TEST(Diagnostic, StatusDefaultsToSuccess) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  const Status bad = Status::failure(StatusCode::IoError, "cannot open");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::IoError);
  EXPECT_NE(bad.toString().find("cannot open"), std::string::npos);
}

TEST(Diagnostic, LogTracksWorstSeverity) {
  DiagnosticLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.worstSeverity(), Severity::Info);
  log.record(support::makeDiagnostic(StatusCode::SimulationFailed, "a")
                 .withSeverity(Severity::Warning));
  EXPECT_EQ(log.worstSeverity(), Severity::Warning);
  log.record(support::makeDiagnostic(StatusCode::Internal, "b"));
  EXPECT_EQ(log.worstSeverity(), Severity::Error);
  EXPECT_EQ(log.size(), 2u);
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.worstSeverity(), Severity::Info);
}

#if PROX_ENABLE_FAULT_INJECTION

TEST(FaultPlan, FiresOnlyInsideWindow) {
  FaultPlan::Scope scope({"test.site", FaultKind::SingularLu, 2, 2});
  EXPECT_TRUE(FaultPlan::armed());
  EXPECT_FALSE(PROX_FAULT_POINT("test.site", SingularLu));  // hit 1
  EXPECT_TRUE(PROX_FAULT_POINT("test.site", SingularLu));   // hit 2
  EXPECT_TRUE(PROX_FAULT_POINT("test.site", SingularLu));   // hit 3
  EXPECT_FALSE(PROX_FAULT_POINT("test.site", SingularLu));  // hit 4
  EXPECT_EQ(FaultPlan::hits(), 4u);
  EXPECT_EQ(FaultPlan::fired(), 2u);
}

TEST(FaultPlan, SiteAndKindMustBothMatch) {
  FaultPlan::Scope scope({"test.site", FaultKind::NanResidual, 1, 100});
  EXPECT_FALSE(PROX_FAULT_POINT("other.site", NanResidual));
  EXPECT_FALSE(PROX_FAULT_POINT("test.site", SingularLu));
  EXPECT_EQ(FaultPlan::hits(), 0u);
  EXPECT_TRUE(PROX_FAULT_POINT("test.site", NanResidual));
  EXPECT_EQ(FaultPlan::hits(), 1u);
  EXPECT_EQ(FaultPlan::fired(), 1u);
}

TEST(FaultPlan, DisarmedNeverFires) {
  FaultPlan::disarm();
  EXPECT_FALSE(FaultPlan::armed());
  EXPECT_FALSE(PROX_FAULT_POINT("test.site", SingularLu));
}

#endif  // PROX_ENABLE_FAULT_INJECTION

model::DualTable tinyTable() {
  model::DualTable t;
  t.u = {1.0, 2.0};
  t.v = {0.5, 1.5};
  t.w = {-1.0, 1.0};
  t.ratio.assign(8, 1.0);
  // Make the surface non-constant so interpolation is observable.
  t.at(1, 1, 1) = 2.0;
  return t;
}

TEST(DualTable, InGridQueryReportsZeroClampDistance) {
  const model::DualTable t = tinyTable();
  EXPECT_DOUBLE_EQ(testref::evaluateAt(t, 1.5, 1.0, 0.0).clampDistance, 0.0);
}

TEST(DualTable, OutOfGridQueryClampsAndReportsDistance) {
  const model::DualTable t = tinyTable();
  // u overshoots by 1.0 beyond a span of 1.0 -> relative distance 1.0.
  const model::DualResult r = testref::evaluateAt(t, 3.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(r.clampDistance, 1.0);
  EXPECT_TRUE(std::isfinite(r.value));
  // The clamped answer equals the boundary value.
  EXPECT_DOUBLE_EQ(r.value, testref::evaluateAt(t, 2.0, 1.0, 0.0).value);
  // The largest per-axis overshoot wins.
  EXPECT_DOUBLE_EQ(testref::evaluateAt(t, 3.0, 1.0, 5.0).clampDistance, 2.0);
}

TEST(DualTable, HealedMarksRoundTripThroughAccessors) {
  model::DualTable t = tinyTable();
  EXPECT_EQ(t.healedCount(), 0u);
  EXPECT_FALSE(t.isHealed(0, 1, 1));
  t.markHealed(0, 1, 1);
  EXPECT_TRUE(t.isHealed(0, 1, 1));
  EXPECT_FALSE(t.isHealed(0, 0, 0));
  EXPECT_EQ(t.healedCount(), 1u);
}

}  // namespace
