#include "fleet/bundle.hpp"

#include <limits>
#include <set>
#include <sstream>

#include "obs/registry.hpp"
#include "support/bounded.hpp"
#include "support/durable_io.hpp"
#include "support/journal.hpp"

namespace prox::fleet {

namespace {

constexpr const char* kSite = "fleet.bundle";
constexpr const char* kMagic = "proxbundle";
constexpr int kVersion = 1;

// Manifest lines are machine-written and short; anything longer is damage.
constexpr std::size_t kMaxManifestLineBytes = 4096;

/// Whitespace-free diagnostic token: spaces and control bytes become '_' so
/// a free-text reason can never break the line grammar.
std::string sanitizeReason(const std::string& reason) {
  if (reason.empty()) return "-";
  std::string out = reason;
  for (char& c : out) {
    if (static_cast<unsigned char>(c) <= ' ') c = '_';
  }
  if (out.size() > 256) out.resize(256);
  return out;
}

bool statusFromName(const std::string& name, BundleCornerStatus* out) {
  if (name == "ok") *out = BundleCornerStatus::Ok;
  else if (name == "quarantined") *out = BundleCornerStatus::Quarantined;
  else if (name == "missing") *out = BundleCornerStatus::Missing;
  else return false;
  return true;
}

[[noreturn]] void failStructural(const std::string& msg) {
  throw support::DiagnosticError(
      support::makeDiagnostic(support::StatusCode::StructuralError, msg)
          .withSite(kSite));
}

}  // namespace

const char* bundleCornerStatusName(BundleCornerStatus status) noexcept {
  switch (status) {
    case BundleCornerStatus::Ok: return "ok";
    case BundleCornerStatus::Quarantined: return "quarantined";
    case BundleCornerStatus::Missing: return "missing";
  }
  return "unknown";
}

const BundleEntry* Bundle::find(const std::string& name) const {
  for (const BundleEntry& e : entries) {
    if (e.corner.name == name) return &e;
  }
  return nullptr;
}

std::size_t Bundle::okCount() const {
  std::size_t n = 0;
  for (const BundleEntry& e : entries) {
    if (e.status == BundleCornerStatus::Ok) ++n;
  }
  return n;
}

void writeBundle(const std::string& path,
                 const std::vector<BundleWriteEntry>& entries) {
  // Embed artifacts first so an unreadable one fails before the temp file
  // exists.  Sections concatenate in manifest order -- deterministic given
  // a deterministic corner list.
  std::vector<std::string> sections(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].status == BundleCornerStatus::Ok) {
      sections[i] = support::readFileBounded(
          entries[i].proxPath, support::ReaderLimits{}.maxInputBytes, kSite);
    }
  }

  using support::hex64;
  const auto bits = [](double v) {
    return ' ' + hex64(support::doubleToBits(v));
  };
  std::string out = support::sealLine(std::string(kMagic) + ' ' +
                                      std::to_string(kVersion) + ' ' +
                                      std::to_string(entries.size()));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BundleWriteEntry& e = entries[i];
    out += support::sealLine(
        "corner " + e.corner.name + bits(e.corner.vddScale) +
        bits(e.corner.vtShift) + bits(e.corner.kpScale) +
        bits(e.corner.gammaScale) + ' ' + bundleCornerStatusName(e.status) +
        ' ' + hex64(sections[i].size()) + ' ' +
        support::hex32(support::crc32(sections[i])) + ' ' +
        sanitizeReason(e.reason));
  }
  out += support::sealLine("endmanifest");
  for (const std::string& s : sections) out += s;

  support::writeFileAtomic(path, [&](std::ostream& os) { os << out; });
  PROX_OBS_COUNT("fleet.bundle.written", 1);
}

Bundle parseBundle(const std::string& text, const std::string& pathForDiag) {
  if (text.size() > support::ReaderLimits{}.maxInputBytes) {
    support::failResource(kSite, "bundle too large: " + pathForDiag);
  }
  support::AllocationBudget budget(kSite, text.size());

  std::istringstream is(text);
  support::BoundedLine line;
  int lineNo = 0;
  std::size_t offset = 0;  // byte offset just past the last consumed line

  auto nextLine = [&]() -> std::vector<std::string> {
    if (!support::getlineBounded(is, kMaxManifestLineBytes, &line) ||
        !line.sawNewline || line.overlong) {
      support::failParse(kSite, "truncated bundle manifest: " + pathForDiag,
                         lineNo);
    }
    ++lineNo;
    offset += line.text.size() + 1;
    std::vector<std::string> fields;
    if (!support::openSealedLine(line.text, &fields)) {
      support::failParse(kSite, "corrupt bundle manifest line: " + pathForDiag,
                         lineNo);
    }
    return fields;
  };

  const std::vector<std::string> header = nextLine();
  if (header.size() != 3 || header[0] != kMagic ||
      header[1] != std::to_string(kVersion)) {
    support::failParse(kSite, "bad bundle header: " + pathForDiag, lineNo);
  }
  const std::uint64_t declared = support::parseCountChecked(
      header[2], cells::kMaxCorners, kSite, "corner count", lineNo);
  if (declared == 0) {
    support::failParse(kSite, "bundle declares zero corners: " + pathForDiag,
                       lineNo);
  }

  Bundle bundle;
  std::set<std::string> names;
  std::vector<std::uint64_t> sectionLens;
  std::vector<std::uint32_t> sectionCrcs;
  budget.chargeItems(declared, sizeof(BundleEntry) + 64, "bundle manifest",
                     lineNo);
  for (std::uint64_t i = 0; i < declared; ++i) {
    const std::vector<std::string> f = nextLine();
    if (f.size() != 10 || f[0] != "corner") {
      support::failParse(kSite, "bad manifest entry: " + pathForDiag, lineNo);
    }
    BundleEntry e;
    e.corner.name = f[1];
    if (e.corner.name.empty() ||
        e.corner.name.size() > cells::kMaxCornerNameBytes) {
      support::failParse(kSite, "bad corner name: " + pathForDiag, lineNo);
    }
    if (!names.insert(e.corner.name).second) {
      support::failParse(kSite,
                         "duplicate corner \"" + e.corner.name + "\": " +
                             pathForDiag,
                         lineNo);
    }
    std::uint64_t vdd = 0, vt = 0, kp = 0, gamma = 0, len = 0, crc = 0;
    using support::parseHex;
    if (!parseHex(f[2], &vdd) || !parseHex(f[3], &vt) || !parseHex(f[4], &kp) ||
        !parseHex(f[5], &gamma) || !parseHex(f[7], &len) ||
        !parseHex(f[8], &crc)) {
      support::failParse(kSite, "bad manifest numbers: " + pathForDiag, lineNo);
    }
    e.corner.vddScale = support::bitsFromDouble(vdd);
    e.corner.vtShift = support::bitsFromDouble(vt);
    e.corner.kpScale = support::bitsFromDouble(kp);
    e.corner.gammaScale = support::bitsFromDouble(gamma);
    if (!statusFromName(f[6], &e.status)) {
      support::failParse(kSite, "bad corner status \"" + f[6] + "\": " +
                                    pathForDiag,
                         lineNo);
    }
    if (f[9] != "-") e.reason = f[9];
    if (e.status != BundleCornerStatus::Ok && len != 0) {
      support::failParse(kSite,
                         "non-ok corner with a section: " + pathForDiag,
                         lineNo);
    }
    sectionLens.push_back(len);
    sectionCrcs.push_back(static_cast<std::uint32_t>(crc));
    bundle.entries.push_back(std::move(e));
  }
  const std::vector<std::string> trailer = nextLine();
  if (trailer.size() != 1 || trailer[0] != "endmanifest") {
    support::failParse(kSite, "bad manifest trailer: " + pathForDiag, lineNo);
  }

  // Declared section lengths must tile the remaining bytes exactly -- a
  // length field cannot point past EOF or leave trailing garbage.
  std::uint64_t total = 0;
  for (std::uint64_t len : sectionLens) {
    if (len > text.size() - offset || total > text.size() - offset - len) {
      support::failParse(kSite, "section length past end of file: " +
                                    pathForDiag);
    }
    total += len;
  }
  if (offset + total != text.size()) {
    support::failParse(kSite, "trailing bytes after last section: " +
                                  pathForDiag);
  }

  for (std::size_t i = 0; i < bundle.entries.size(); ++i) {
    BundleEntry& e = bundle.entries[i];
    const std::uint64_t len = sectionLens[i];
    if (e.status != BundleCornerStatus::Ok) continue;
    budget.charge(static_cast<std::size_t>(len), "bundle section");
    const std::string_view section(text.data() + offset,
                                   static_cast<std::size_t>(len));
    offset += static_cast<std::size_t>(len);
    if (support::crc32(section) != sectionCrcs[i]) {
      support::failParse(kSite, "section CRC mismatch for corner \"" +
                                    e.corner.name + "\": " + pathForDiag);
    }
    std::istringstream ss{std::string(section)};
    e.gate = characterize::loadGateModel(ss);
  }
  PROX_OBS_COUNT("fleet.bundle.loaded", 1);
  return bundle;
}

Bundle loadBundleFile(const std::string& path) {
  return parseBundle(
      support::readFileBounded(path, support::ReaderLimits{}.maxInputBytes,
                               kSite),
      path);
}

CornerSelection selectCorner(const Bundle& bundle, const std::string& name,
                             MissingCornerPolicy policy,
                             support::DiagnosticLog* log) {
  CornerSelection sel;
  sel.requested = name;
  const BundleEntry* entry = bundle.find(name);
  if (entry == nullptr) {
    failStructural("corner \"" + name +
                   "\" is not in the bundle manifest (a typo is not a hole "
                   "-- degrade mode only covers corners the fleet knew "
                   "about)");
  }
  if (entry->status == BundleCornerStatus::Ok) {
    sel.entry = entry;
    return sel;
  }
  if (policy == MissingCornerPolicy::Reject) {
    failStructural("corner \"" + name + "\" is " +
                   bundleCornerStatusName(entry->status) +
                   (entry->reason.empty() ? std::string()
                                          : " (" + entry->reason + ")") +
                   "; rerun the fleet or pass --corner-policy=degrade");
  }
  // Degrade: nearest characterized corner by parameter distance; ties break
  // by manifest order.
  const BundleEntry* best = nullptr;
  double bestDist = std::numeric_limits<double>::infinity();
  for (const BundleEntry& cand : bundle.entries) {
    if (cand.status != BundleCornerStatus::Ok) continue;
    const double d = cells::cornerDistance(entry->corner, cand.corner);
    if (d < bestDist) {
      bestDist = d;
      best = &cand;
    }
  }
  if (best == nullptr) {
    failStructural("corner \"" + name +
                   "\" cannot degrade: the bundle holds no characterized "
                   "corner at all");
  }
  PROX_OBS_COUNT("fleet.bundle.nearest_fallbacks", 1);
  if (log != nullptr) {
    log->record(support::makeDiagnostic(
                    support::StatusCode::StructuralError,
                    "corner \"" + name + "\" is " +
                        bundleCornerStatusName(entry->status) +
                        "; degraded to nearest characterized corner \"" +
                        best->corner.name + "\"")
                    .withSeverity(support::Severity::Warning)
                    .withSite(kSite));
  }
  sel.entry = best;
  sel.degraded = true;
  return sel;
}

}  // namespace prox::fleet
