// The BLIF reader's contract (sta/blif.hpp): every rejection pinned by its
// StatusCode, message and line; and, for accepted input, the netlist it
// builds, down to the order in which nets and instances get their IDs.
// A reader rewrite must keep all of it.

#include <gtest/gtest.h>

#include <string>

#include "sta/blif.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"

namespace {

using namespace prox;
using sta::BlifOptions;
using sta::BlifSummary;
using sta::Netlist;
using sta::StructuralIssue;
using sta::StructuralPolicy;
using support::DiagnosticError;
using support::StatusCode;

const sta::GateLibrary& library() {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  return lib;
}

/// The diagnostic a read of @p text throws; a default (Ok) diagnostic when
/// it is accepted.
support::Diagnostic rejectionOf(const std::string& text,
                                const BlifOptions& options = {},
                                const sta::GateLibrary& lib = library()) {
  Netlist nl;
  try {
    sta::readBlifString(text, lib, &nl, options);
  } catch (const DiagnosticError& e) {
    return e.diagnostic();
  }
  return {};
}

void expectRejection(const std::string& text, StatusCode code,
                     const std::string& message, int line,
                     const BlifOptions& options = {},
                     const sta::GateLibrary& lib = library()) {
  const support::Diagnostic d = rejectionOf(text, options, lib);
  EXPECT_EQ(d.code, code) << support::statusCodeName(d.code) << ": "
                          << d.message;
  EXPECT_EQ(d.message, message);
  EXPECT_EQ(d.line, line);
  EXPECT_EQ(d.site, "sta.blif");
}

/// Everything the reader put into @p nl, in ID order: nets with their
/// driver and primary-input mark, then instances with cell, pins and
/// output.  Two netlists with equal descriptions are the same arena.
std::string describe(const Netlist& nl) {
  std::string out;
  for (std::uint32_t i = 0; i < nl.netCount(); ++i) {
    const sta::NetId net(i);
    out += "net " + nl.netName(net);
    if (nl.netIsPrimaryInput(net)) out += " pi";
    const sta::NodeId driver = nl.netDriver(net);
    if (driver.valid()) out += " <- " + nl.nodeName(driver);
    out += '\n';
  }
  for (std::uint32_t i = 0; i < nl.nodeCount(); ++i) {
    const sta::NodeId node(i);
    const auto& spec = nl.nodeCell(node).gate.spec;
    out += "node " + nl.nodeName(node) + " " +
           cells::gateTypeName(spec.type, spec.fanin) + " (";
    for (const sta::NetId in : nl.nodeInputs(node)) {
      out += " " + nl.netName(in);
    }
    out += " ) -> " + nl.netName(nl.nodeOutput(node)) + '\n';
  }
  out += "pis";
  for (const sta::NetId pi : nl.primaryInputs()) out += " " + nl.netName(pi);
  return out + '\n';
}

// --- rejections -------------------------------------------------------------

TEST(BlifReject, DuplicateModel) {
  expectRejection(".model a\n.model b\n.end\n", StatusCode::ParseError,
                  "duplicate .model", 2);
}

TEST(BlifReject, DuplicateInputNet) {
  expectRejection(".model m\n.inputs a b\n.inputs a\n.outputs y\n"
                  ".names a y\n0 1\n.end\n",
                  StatusCode::ParseError, "duplicate .inputs net 'a'", 3);
}

TEST(BlifReject, DuplicateOutputNet) {
  expectRejection(".model m\n.inputs a\n.outputs y\n.outputs y\n"
                  ".names a y\n0 1\n.end\n",
                  StatusCode::ParseError, "duplicate .outputs net 'y'", 4);
}

TEST(BlifReject, CoverRowOutsideNames) {
  expectRejection(".model m\n.inputs a\n01 1\n.end\n", StatusCode::ParseError,
                  "cover row outside a .names card", 3);
  // Any card closes the open cover, so a row after it is outside too.
  expectRejection(".model m\n.inputs a\n.names a y\n0 1\n.outputs y\n1 0\n"
                  ".end\n",
                  StatusCode::ParseError, "cover row outside a .names card", 6);
}

TEST(BlifReject, RowWidthMustEqualFanin) {
  expectRejection(".model m\n.inputs a b\n.names a b y\n111 0\n.end\n",
                  StatusCode::ParseError,
                  "cover row width 3 does not match fanin 2", 4);
}

TEST(BlifReject, BadPlaneCharacter) {
  expectRejection(".model m\n.inputs a b\n.names a b y\n1x 0\n.end\n",
                  StatusCode::ParseError, "invalid cover-plane character 'x'",
                  4);
}

TEST(BlifReject, MixedOnSetAndOffSetRows) {
  // Reported at the first row whose output differs from the first row's.
  expectRejection(".model m\n.inputs a b\n.outputs y\n.names a b y\n0- 1\n"
                  "-0 0\n.end\n",
                  StatusCode::ParseError, "cover mixes on-set and off-set rows",
                  6);
}

TEST(BlifReject, UnsupportedCard) {
  expectRejection(".model m\n.inputs a\n.subckt inv a=a y=y\n.end\n",
                  StatusCode::ParseError, "unsupported construct '.subckt'", 3);
}

TEST(BlifReject, MissingEnd) {
  // The line is the last physical line read: the empty one after the
  // final newline.
  expectRejection(".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n",
                  StatusCode::ParseError, "truncated input: missing .end", 6);
}

TEST(BlifReject, UndrivenOutput) {
  expectRejection(".model m\n.inputs a\n.outputs y z\n.names a y\n0 1\n.end\n",
                  StatusCode::ParseError, "undriven .outputs net 'z'", 3);
}

TEST(BlifReject, LatchRedrivesNet) {
  expectRejection(".model m\n.inputs a q\n.latch a q re clk 0\n.end\n",
                  StatusCode::ParseError, ".latch output 'q' re-drives a net",
                  3);
}

TEST(BlifReject, ConstantRedrivesNet) {
  expectRejection(".model m\n.inputs a\n.names a\n1\n.end\n",
                  StatusCode::ParseError, "constant re-drives net 'a'", 3);
  // A second constant on one net is a re-drive too.
  expectRejection(".model m\n.names k\n1\n.names k\n0\n.end\n",
                  StatusCode::ParseError, "constant re-drives net 'k'", 4);
}

TEST(BlifReject, FaninOverCapIsResourceExhausted) {
  BlifOptions options;
  options.maxFanin = 2;
  expectRejection(".model m\n.inputs a b c\n.names a b c y\n111 0\n.end\n",
                  StatusCode::ResourceExhausted, ".names fanin 3 exceeds cap 2",
                  3, options);
}

TEST(BlifReject, TokenOverCapIsResourceExhausted) {
  BlifOptions options;
  options.limits.maxTokenBytes = 8;
  expectRejection(".model m\n.inputs a\n.outputs longer_than_eight\n.end\n",
                  StatusCode::ResourceExhausted, "token exceeds size cap", 3,
                  options);
}

TEST(BlifReject, TableMissingNamesTheCell) {
  const sta::GateLibrary narrow = sta::analyticLibrary(2);
  expectRejection(".model m\n.inputs a b c\n.outputs y\n.names a b c y\n"
                  "111 0\n.end\n",
                  StatusCode::TableMissing, "no characterized cell for NAND3",
                  4, {}, narrow);
}

// The budget is the sum of every charge the reader makes, lexing and
// building alike, so the smallest allocation floor that admits a file pins
// that sum exactly; one byte less trips the last charge, which here is a
// build-side one.
TEST(BlifReject, ExhaustedBudgetPinsEveryCharge) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs y\n.latch b q\n.names k\n1\n"
      ".names a q t\n11 0\n.names t k y\n00 1\n.end\n";
  const auto admitted = [&](std::size_t floor) {
    BlifOptions options;
    options.limits.allocFactor = 0;
    options.limits.allocFloor = floor;
    return rejectionOf(text, options).ok();
  };
  std::size_t lo = 0;
  std::size_t hi = 1u << 16;
  ASSERT_TRUE(admitted(hi));
  while (lo + 1 < hi) {  // admitted(hi) && !admitted(lo)
    const std::size_t mid = lo + (hi - lo) / 2;
    (admitted(mid) ? hi : lo) = mid;
  }
  EXPECT_EQ(hi, 1449u);

  BlifOptions options;
  options.limits.allocFactor = 0;
  options.limits.allocFloor = hi - 1;
  const support::Diagnostic d = rejectionOf(text, options);
  EXPECT_EQ(d.code, StatusCode::ResourceExhausted);
  EXPECT_EQ(d.message,
            "allocation budget exceeded reading instance nets (declared sizes "
            "need 1449 bytes for a 1448-byte budget derived from the input "
            "size)");
  EXPECT_EQ(d.line, 9);

  // A budget that cannot hold the first token fails while lexing.
  options.limits.allocFloor = 8;
  const support::Diagnostic early = rejectionOf(text, options);
  EXPECT_EQ(early.code, StatusCode::ResourceExhausted);
  EXPECT_EQ(early.line, 1);
  EXPECT_NE(early.message.find("reading token"), std::string::npos)
      << early.message;
}

// The reader sizes its arena before it adds any instance, but never past
// what an active maxNodes cap admits: a large file under a small cap still
// fails typed, on the first instance past the cap, with the instances
// before it built.
TEST(BlifReject, NodeCapTripsALargeFileMidBuild) {
  std::string text = ".model m\n.inputs n0\n.outputs n5000\n";
  for (int i = 1; i <= 5000; ++i) {
    text += ".names n" + std::to_string(i - 1) + " n" + std::to_string(i) +
            "\n0 1\n";
  }
  text += ".end\n";
  support::ResourceBudget limits;
  limits.maxNodes = 100;
  support::BudgetTracker tracker(limits);
  support::BudgetScope scope(&tracker);
  Netlist nl;
  try {
    sta::readBlifString(text, library(), &nl);
    ADD_FAILURE() << "a file over the node cap must reject";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(e.diagnostic().message,
              "resource budget exceeded: nodes 101 > limit 100");
    EXPECT_EQ(e.diagnostic().site, "sta.netlist");
  }
  EXPECT_EQ(nl.nodeCount(), 100u);
}

// --- accepted input ---------------------------------------------------------

constexpr const char* kPlain =
    ".model m\n"
    ".inputs a b c\n"
    ".outputs y z\n"
    ".names a b t\n"
    "11 0\n"
    ".names t c y\n"
    "00 1\n"
    ".names y z\n"
    "0 1\n"
    ".end\n";

TEST(BlifAccept, ContinuationsCommentsAndCrlfBuildThePlainNetlist) {
  Netlist plain;
  const BlifSummary ps = sta::readBlifString(kPlain, library(), &plain);

  const std::string dressed =
      "# header comment\r\n"
      ".model m   # trailing comment\r\n"
      ".inputs a \\\r\n"
      "  b \\\n"
      "\tc\r\n"
      ".outputs y z\n"
      "\n"
      ".names a b \\\n"
      " t\r\n"
      "11 0 # row comment\n"
      "# a comment between cover rows\n"
      ".names t c y\r\n"
      "00 1\r\n"
      ".names y z\n"
      "0 1\n"
      ".end\r\n";
  Netlist nl;
  const BlifSummary ds = sta::readBlifString(dressed, library(), &nl);

  EXPECT_EQ(describe(nl), describe(plain));
  EXPECT_EQ(describe(plain),
            "net a pi\nnet b pi\nnet c pi\nnet t <- t\nnet y <- y\n"
            "net z <- z\n"
            "node t NAND2 ( a b ) -> t\nnode y NOR2 ( t c ) -> y\n"
            "node z INV ( y ) -> z\n"
            "pis a b c\n");
  EXPECT_EQ(ds.modelName, "m");
  EXPECT_EQ(ds.inputs, ps.inputs);
  EXPECT_EQ(ds.outputs, ps.outputs);
  EXPECT_EQ(ds.gates, 3u);
}

TEST(BlifAccept, InputsAfterTheGates) {
  const std::string late =
      ".model m\n"
      ".outputs y z\n"
      ".names a b t\n"
      "11 0\n"
      ".names t c y\n"
      "00 1\n"
      ".names y z\n"
      "0 1\n"
      ".inputs a b c\n"
      ".end\n";
  Netlist nl;
  const BlifSummary s = sta::readBlifString(late, library(), &nl);
  Netlist plain;
  sta::readBlifString(kPlain, library(), &plain);
  // Inputs are declared before any gate is built, whatever the card order.
  EXPECT_EQ(describe(nl), describe(plain));
  EXPECT_EQ(s.inputs, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(nl.levelize(StructuralPolicy::Reject).issues.empty());
}

TEST(BlifAccept, MultiDriverGetsUniquifiedInstanceNames) {
  const std::string text =
      ".model m\n"
      ".inputs a b\n"
      ".outputs y\n"
      ".names a b y\n"
      "11 0\n"
      ".names a y\n"
      "0 1\n"
      ".names b y\n"
      "1 0\n"
      ".end\n";
  Netlist nl;
  const BlifSummary s = sta::readBlifString(text, library(), &nl);
  EXPECT_EQ(s.gates, 3u);
  EXPECT_EQ(describe(nl),
            "net a pi\nnet b pi\nnet y <- y\n"
            "node y NAND2 ( a b ) -> y\nnode y#2 INV ( a ) -> y\n"
            "node y#3 INV ( b ) -> y\n"
            "pis a b\n");

  const sta::LevelizeResult& degraded =
      nl.levelize(StructuralPolicy::Degrade);
  ASSERT_EQ(degraded.issues.size(), 2u);
  const StructuralIssue& first = degraded.issues[0];
  EXPECT_EQ(first.kind, StructuralIssue::Kind::MultiDriver);
  EXPECT_EQ(first.message, "net multiply driven: y (instance y#2 loses to y)");
  EXPECT_EQ(first.instances, (std::vector<std::string>{"y#2"}));
  EXPECT_EQ(degraded.issues[1].message,
            "net multiply driven: y (instance y#3 loses to y)");

  try {
    nl.levelize(StructuralPolicy::Reject);
    ADD_FAILURE() << "a multiply-driven net must reject";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::StructuralError);
  }
}

TEST(BlifAccept, LatchesAndConstantsBecomePseudoInputs) {
  const std::string text =
      ".model m\n"
      ".inputs a\n"
      ".outputs y\n"
      ".names q k t\n"
      "11 0\n"
      ".latch t q re clk 0\n"
      ".names k\n"
      "1\n"
      ".latch y r\n"
      ".names t a y\n"
      "00 1\n"
      ".names zero\n"
      ".end\n";
  Netlist nl;
  const BlifSummary s = sta::readBlifString(text, library(), &nl);
  EXPECT_EQ(s.latches, 2u);
  EXPECT_EQ(s.constants, 2u);
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.inputs, (std::vector<std::string>{"a"}));
  // Nets are numbered as the reader first names them: inputs, latch
  // outputs, then each cover's nets in card order (constant k keeps the ID
  // its reader t gave it).
  EXPECT_EQ(describe(nl),
            "net a pi\nnet q pi\nnet r pi\nnet k pi\n"
            "net t <- t\nnet y <- y\nnet zero pi\n"
            "node t NAND2 ( q k ) -> t\nnode y NOR2 ( t a ) -> y\n"
            "pis a q r k zero\n");
  EXPECT_TRUE(nl.levelize(StructuralPolicy::Reject).issues.empty());

  BlifOptions noLatches;
  noLatches.allowLatches = false;
  expectRejection(text, StatusCode::ParseError,
                  ".latch not allowed by reader options", 6, noLatches);
}

}  // namespace
