#include "sta/blif.hpp"

#include <algorithm>
#include <iostream>
#include <span>
#include <unordered_set>
#include <utility>

#include "characterize/analytic.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"

namespace prox::sta {

namespace {

constexpr const char* kSite = "sta.blif";

using characterize::CharacterizedGate;
using support::AllocationBudget;
using support::failParse;
using support::failResource;

std::pair<int, int> cellKey(cells::GateType type, int fanin) {
  return {static_cast<int>(type), fanin};
}

// --- Parsed intermediate form ----------------------------------------------
// The reader lexes the whole file into cards first and builds the netlist
// second, so card order (".inputs" after the gates that read them, multiple
// ".outputs" cards) never matters.

struct Row {
  int line = 0;
  std::string plane;  ///< k characters over {'0','1','-'}; empty when k == 0
  char out = '0';
};

struct Cover {
  int line = 0;
  std::vector<std::string> nets;  ///< inputs..., output last (size >= 1)
  std::vector<Row> rows;
};

struct ParsedBlif {
  std::string modelName;
  bool sawModel = false;
  bool ended = false;
  std::vector<std::pair<int, std::string>> inputs;   ///< (line, net)
  std::vector<std::pair<int, std::string>> outputs;  ///< (line, net)
  std::vector<std::pair<int, std::string>> latchOutputs;
  std::vector<Cover> covers;
};

void parseCoverRow(Cover* cover, int line,
                   const std::vector<std::string>& tokens) {
  const std::size_t k = cover->nets.size() - 1;
  Row row;
  row.line = line;
  if (k == 0) {
    if (tokens.size() != 1 || tokens[0].size() != 1 ||
        (tokens[0][0] != '0' && tokens[0][0] != '1')) {
      failParse(kSite, "constant cover row must be a single '0' or '1'", line);
    }
    row.out = tokens[0][0];
  } else {
    if (tokens.size() != 2) {
      failParse(kSite, "cover row must be <plane> <output>", line);
    }
    if (tokens[0].size() != k) {
      failParse(kSite,
                "cover row width " + std::to_string(tokens[0].size()) +
                    " does not match fanin " + std::to_string(k),
                line);
    }
    for (const char c : tokens[0]) {
      if (c != '0' && c != '1' && c != '-') {
        failParse(kSite,
                  std::string("invalid cover-plane character '") + c + "'",
                  line);
      }
    }
    if (tokens[1].size() != 1 || (tokens[1][0] != '0' && tokens[1][0] != '1')) {
      failParse(kSite, "cover output must be '0' or '1'", line);
    }
    row.plane = tokens[0];
    row.out = tokens[1][0];
  }
  cover->rows.push_back(std::move(row));
}

/// Dispatches one logical line (continuations already joined) into @p out.
/// @p openCover tracks the .names card whose rows are being read.
void handleLogicalLine(ParsedBlif* out, Cover** openCover, int line,
                       const std::vector<std::string>& tokens,
                       const BlifOptions& options) {
  const std::string& head = tokens[0];
  if (head[0] != '.') {
    if (*openCover == nullptr) {
      failParse(kSite, "cover row outside a .names card", line);
    }
    parseCoverRow(*openCover, line, tokens);
    return;
  }
  *openCover = nullptr;
  if (head == ".model") {
    if (out->sawModel) failParse(kSite, "duplicate .model", line);
    if (tokens.size() != 2) failParse(kSite, ".model: expected one name", line);
    out->sawModel = true;
    out->modelName = tokens[1];
  } else if (head == ".inputs") {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      out->inputs.emplace_back(line, tokens[i]);
    }
  } else if (head == ".outputs") {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      out->outputs.emplace_back(line, tokens[i]);
    }
  } else if (head == ".names") {
    if (tokens.size() < 2) failParse(kSite, ".names: missing output net", line);
    if (tokens.size() - 2 > options.maxFanin) {
      failResource(kSite,
                   ".names fanin " + std::to_string(tokens.size() - 2) +
                       " exceeds cap " + std::to_string(options.maxFanin),
                   line);
    }
    Cover cover;
    cover.line = line;
    cover.nets.assign(tokens.begin() + 1, tokens.end());
    out->covers.push_back(std::move(cover));
    *openCover = &out->covers.back();
  } else if (head == ".latch") {
    if (!options.allowLatches) {
      failParse(kSite, ".latch not allowed by reader options", line);
    }
    // .latch <input> <output> [<type> <control>] [<init-val>]
    const std::size_t operands = tokens.size() - 1;
    if (operands < 2 || operands > 5) {
      failParse(kSite, ".latch: expected 2..5 operands", line);
    }
    out->latchOutputs.emplace_back(line, tokens[2]);
  } else if (head == ".end") {
    out->ended = true;
  } else {
    failParse(kSite, "unsupported construct '" + head + "'", line);
  }
}

/// Lexes @p text into logical lines (comments stripped, '\'-continuations
/// joined, tokens split on blanks) and feeds them through the card state
/// machine.  Every token and row is budget-charged before it is stored.
ParsedBlif parseCards(std::string_view text, const BlifOptions& options,
                      AllocationBudget* budget) {
  PROX_OBS_SPAN("sta.blif.lex");
  ParsedBlif out;
  Cover* openCover = nullptr;
  std::vector<std::string> tokens;
  int logicalLine = 0;

  std::size_t pos = 0;
  int physLine = 0;
  bool done = false;
  while (!done) {
    ++physLine;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
      done = true;
    }
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.remove_suffix(1);
    }
    bool continued = false;
    if (!line.empty() && line.back() == '\\') {
      continued = true;
      line.remove_suffix(1);
    }

    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i == start) break;
      std::string_view token = line.substr(start, i - start);
      if (token.size() > options.limits.maxTokenBytes) {
        failResource(kSite, "token exceeds size cap", physLine);
      }
      budget->charge(token.size() + 32, "token", physLine);
      if (tokens.empty()) logicalLine = physLine;
      tokens.emplace_back(token);
    }

    if (continued) continue;  // logical line extends onto the next one
    if (!tokens.empty() && !out.ended) {
      handleLogicalLine(&out, &openCover, logicalLine, tokens, options);
    }
    tokens.clear();
  }
  if (!out.ended) {
    failParse(kSite, "truncated input: missing .end", physLine);
  }
  return out;
}

// --- Cover classification ---------------------------------------------------

/// Maps a validated cover to the characterized cell type it denotes, or
/// fails with a typed ParseError.  Recognized shapes (k = fanin):
///   INV  (k=1):  "0 1" (on-set) or "1 0" (off-set)
///   NAND: single all-'1' row -> '0', or k rows each with exactly one '0'
///         (rest '-') -> '1' covering every position once
///   NOR:  single all-'0' row -> '1', or k rows each with exactly one '1'
///         (rest '-') -> '0' covering every position once
cells::GateType classifyCover(const Cover& cover) {
  const std::size_t k = cover.nets.size() - 1;
  const auto& rows = cover.rows;
  if (rows.empty()) {
    failParse(kSite, ".names with inputs but no cover rows", cover.line);
  }
  const char out0 = rows[0].out;
  for (const Row& r : rows) {
    if (r.out != out0) {
      failParse(kSite, "cover mixes on-set and off-set rows", r.line);
    }
  }
  const auto allAre = [](const std::string& plane, char c) {
    return std::all_of(plane.begin(), plane.end(),
                       [c](char p) { return p == c; });
  };
  if (k == 1) {
    if (rows.size() == 1 && ((rows[0].plane == "0" && out0 == '1') ||
                             (rows[0].plane == "1" && out0 == '0'))) {
      return cells::GateType::Inverter;
    }
    failParse(kSite,
              "single-input cover is not an inverter (buffers have no "
              "characterized cell)",
              cover.line);
  }
  if (rows.size() == 1) {
    if (out0 == '0' && allAre(rows[0].plane, '1')) return cells::GateType::Nand;
    if (out0 == '1' && allAre(rows[0].plane, '0')) return cells::GateType::Nor;
  }
  // k-row one-hot forms: each row distinguishes exactly one position with
  // @p mark ('-' elsewhere) and every position is distinguished exactly once.
  const auto oneHot = [&](char mark, char outBit) {
    if (rows.size() != k || out0 != outBit) return false;
    std::vector<char> seen(k, 0);
    for (const Row& r : rows) {
      int pick = -1;
      for (std::size_t i = 0; i < k; ++i) {
        if (r.plane[i] == mark) {
          if (pick >= 0) return false;
          pick = static_cast<int>(i);
        } else if (r.plane[i] != '-') {
          return false;
        }
      }
      if (pick < 0 || seen[pick] != 0) return false;
      seen[pick] = 1;
    }
    return true;
  };
  if (oneHot('0', '1')) return cells::GateType::Nand;
  if (oneHot('1', '0')) return cells::GateType::Nor;
  failParse(kSite,
            "cover does not denote a characterized INV/NAND/NOR cell",
            cover.line);
}

// --- Netlist construction ---------------------------------------------------

BlifSummary buildFromParsed(const ParsedBlif& parsed, const GateLibrary& library,
                            Netlist* netlist, AllocationBudget* budget) {
  PROX_OBS_SPAN("sta.blif.build");
  if (!parsed.sawModel) failParse(kSite, "missing .model", 1);
  BlifSummary summary;
  summary.modelName = parsed.modelName;

  // Size the netlist once from the card counts: every net is declared an
  // input, cut at a latch or driven by a cover (an undriven gate input is
  // the rare extra).  No count is reserved past what the budgets can still
  // admit -- the build charges at least 48 bytes for each net, instance and
  // pin it adds, and each instance counts against an active maxNodes cap --
  // so no array is sized past what the budgets would let the build fill.
  std::size_t gateCount = 0;
  std::size_t pinCount = 0;
  for (const Cover& cover : parsed.covers) {
    const std::size_t k = cover.nets.size() - 1;
    gateCount += k != 0 ? 1 : 0;
    pinCount += k;
  }
  const std::size_t room = (budget->cap() - budget->charged()) / 48;
  std::size_t nodeRoom = room;
  if (const support::BudgetTracker* t = support::currentBudget();
      t != nullptr && t->limits().maxNodes != 0) {
    const std::size_t cap = t->limits().maxNodes;
    nodeRoom = std::min(room, cap - std::min(cap, t->nodes()));
  }
  netlist->reserve(
      std::min(room, parsed.inputs.size() + parsed.latchOutputs.size() +
                         parsed.covers.size()),
      std::min(nodeRoom, gateCount), std::min(room, pinCount));

  // The netlist starts empty, so an input net it already holds was declared
  // twice.
  for (const auto& [line, net] : parsed.inputs) {
    if (netlist->isDriven(net)) {
      failParse(kSite, "duplicate .inputs net '" + net + "'", line);
    }
    budget->charge(net.size() + 64, "primary input", line);
    netlist->addPrimaryInput(net);
    summary.inputs.push_back(net);
  }
  std::unordered_set<std::string> declaredOutputs;
  for (const auto& [line, net] : parsed.outputs) {
    if (!declaredOutputs.insert(net).second) {
      failParse(kSite, "duplicate .outputs net '" + net + "'", line);
    }
    summary.outputs.push_back(net);
  }

  // Latch outputs become pseudo-primary-inputs: the classic STA cut at
  // register boundaries.  Re-driving a declared input is a hard reject (two
  // different no-event sources for one net is meaningless).
  for (const auto& [line, net] : parsed.latchOutputs) {
    if (netlist->isDriven(net)) {
      failParse(kSite, ".latch output '" + net + "' re-drives a net", line);
    }
    budget->charge(net.size() + 64, "latch output", line);
    netlist->addPrimaryInput(net);
    ++summary.latches;
  }

  // Gates.  Instance names are the output net, uniquified against the
  // netlist's own instance index when multiple covers drive the same net
  // (that multi-driver defect is recorded by the lenient add for the
  // caller's StructuralPolicy to judge, not decided here).  A net name never
  // holds '#' (it starts a comment), so "y#2" cannot clash with a net's
  // instance.
  std::string uniqueName;
  for (const Cover& cover : parsed.covers) {
    const std::size_t k = cover.nets.size() - 1;
    const std::string& outNet = cover.nets.back();
    if (k == 0) {
      if (cover.rows.size() > 1) {
        failParse(kSite, "constant cover has multiple rows", cover.line);
      }
      if (netlist->isDriven(outNet)) {
        failParse(kSite, "constant re-drives net '" + outNet + "'",
                  cover.line);
      }
      budget->charge(outNet.size() + 64, "constant net", cover.line);
      netlist->addPrimaryInput(outNet);
      ++summary.constants;
      continue;
    }
    const cells::GateType type = classifyCover(cover);
    const CharacterizedGate& cell =
        library.require(type, static_cast<int>(k), cover.line);
    const std::string* name = &outNet;
    if (netlist->findNode(outNet).valid()) {
      int n = 2;
      do {
        uniqueName = outNet + "#" + std::to_string(n++);
      } while (netlist->findNode(uniqueName).valid());
      name = &uniqueName;
    }
    budget->chargeItems(k + 1, 48, "instance nets", cover.line);
    netlist->addInstanceLenient(
        *name, cell, std::span<const std::string>(cover.nets.data(), k),
        outNet);
    ++summary.gates;
  }

  // Every declared output must be driven: an undriven .outputs net would
  // silently vanish from any timing report.
  for (const auto& [line, net] : parsed.outputs) {
    if (!netlist->isDriven(net)) {
      failParse(kSite, "undriven .outputs net '" + net + "'", line);
    }
  }

  PROX_OBS_COUNT("sta.blif.gates", summary.gates);
  PROX_OBS_COUNT("sta.blif.latches", summary.latches);
  return summary;
}

BlifSummary parseText(std::string_view text, const GateLibrary& library,
                      Netlist* netlist, const BlifOptions& options) {
  if (text.size() > options.limits.maxInputBytes) {
    failResource(kSite, "input exceeds size cap");
  }
  AllocationBudget budget(kSite, text.size(), options.limits);
  const ParsedBlif parsed = parseCards(text, options, &budget);
  return buildFromParsed(parsed, library, netlist, &budget);
}

}  // namespace

// --- GateLibrary ------------------------------------------------------------

void GateLibrary::add(const CharacterizedGate& cell) {
  cells_[cellKey(cell.gate.spec.type, cell.gate.spec.fanin)] = &cell;
}

const CharacterizedGate& GateLibrary::adopt(CharacterizedGate cell) {
  owned_.push_back(std::move(cell));
  const CharacterizedGate& stored = owned_.back();
  cells_[cellKey(stored.gate.spec.type, stored.gate.spec.fanin)] = &stored;
  return stored;
}

const CharacterizedGate* GateLibrary::find(cells::GateType type,
                                           int fanin) const {
  const auto it = cells_.find(cellKey(type, fanin));
  if (it != cells_.end()) return it->second;
  if (!factory_) return nullptr;
  std::optional<CharacterizedGate> made = factory_(type, fanin);
  if (!made.has_value()) return nullptr;
  owned_.push_back(std::move(*made));
  const CharacterizedGate& stored = owned_.back();
  cells_[cellKey(type, fanin)] = &stored;
  return &stored;
}

const CharacterizedGate& GateLibrary::require(cells::GateType type, int fanin,
                                              int line) const {
  if (const CharacterizedGate* cell = find(type, fanin)) return *cell;
  throw support::DiagnosticError(
      support::makeDiagnostic(support::StatusCode::TableMissing,
                              "no characterized cell for " +
                                  cells::gateTypeName(type, fanin))
          .withSite(kSite)
          .withLine(line));
}

GateLibrary analyticLibrary(int maxFanin) {
  GateLibrary lib;
  lib.setFactory([maxFanin](cells::GateType type, int fanin)
                     -> std::optional<CharacterizedGate> {
    if (fanin < 1 || fanin > maxFanin) return std::nullopt;
    if (type == cells::GateType::Inverter && fanin != 1) return std::nullopt;
    if (type != cells::GateType::Inverter &&
        type != cells::GateType::Nand && type != cells::GateType::Nor) {
      return std::nullopt;
    }
    cells::CellSpec spec;
    spec.type = type;
    spec.fanin = fanin;
    return characterize::analyticGate(spec);
  });
  return lib;
}

// --- Entry points -----------------------------------------------------------

BlifSummary readBlif(std::istream& is, const GateLibrary& library,
                     Netlist* netlist, const BlifOptions& options) {
  const std::string text =
      support::readStreamBounded(is, options.limits.maxInputBytes, kSite);
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifString(std::string_view text, const GateLibrary& library,
                           Netlist* netlist, const BlifOptions& options) {
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifFile(const std::string& path, const GateLibrary& library,
                         Netlist* netlist, const BlifOptions& options) {
  if (path == "-") return readBlif(std::cin, library, netlist, options);
  const std::string text =
      support::readFileBounded(path, options.limits.maxInputBytes, kSite);
  return parseText(text, library, netlist, options);
}

}  // namespace prox::sta
