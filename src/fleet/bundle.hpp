#pragma once
// Multi-corner model bundle: the artifact a corner-sweep fleet assembles.
//
// A bundle is a single file holding one characterized `.prox` model per
// completed corner plus a manifest that names every corner the fleet was
// asked for -- including the ones that never completed (quarantined after
// repeated worker failures, or missing because the fleet stopped early).
// The consumer (sta_path) therefore always knows the difference between
// "this corner was characterized" and "this corner is a hole", and applies
// an explicit degrade-or-reject policy instead of crashing or silently
// serving the wrong model.
//
// Layout (text; doubles as IEEE-754 hex bit patterns, so byte-identical
// worker artifacts yield a byte-identical bundle):
//
//   proxbundle 1 <ncorners> <crc8>
//   corner <name> <vdd16> <vt16> <kp16> <gamma16> <status> <len16> <crc8-of-
//     section> <reason> <crc8-of-line>
//   ...
//   endmanifest <crc8>
//   <per-corner .prox sections concatenated in manifest order>
//
// Every manifest line carries a CRC-32 of its payload (journal-style); each
// section additionally carries the byte length and CRC recorded in its
// manifest entry, and each section is itself a complete `.prox` package with
// its own internal CRC trailer.  status is ok | quarantined | missing;
// <reason> is a whitespace-free token ("-" when empty).
//
// Bundles cross a trust boundary (copied between machines, hand-inspected),
// so the reader follows the DESIGN.md section 7 rules: bounded input,
// declared-length validation before slicing, allocation budgeting, typed
// DiagnosticError on any malformation.

#include <optional>
#include <string>
#include <vector>

#include "cells/corner.hpp"
#include "characterize/serialize.hpp"

namespace prox::fleet {

enum class BundleCornerStatus { Ok, Quarantined, Missing };

const char* bundleCornerStatusName(BundleCornerStatus status) noexcept;

/// What a consumer does when the corner it asked for has no model.
/// Mirrors sta::DelayCalcOptions::structural: Reject turns the hole into a
/// typed StructuralError (tools map it to exit 8); Degrade serves the
/// nearest characterized corner and counts the substitution.
enum class MissingCornerPolicy { Reject, Degrade };

/// One manifest entry, plus the loaded model for ok corners.
struct BundleEntry {
  cells::Corner corner;
  BundleCornerStatus status = BundleCornerStatus::Missing;
  std::string reason;  ///< machine-readable token; empty when none
  std::optional<characterize::CharacterizedGate> gate;  ///< ok corners only
};

struct Bundle {
  std::vector<BundleEntry> entries;

  /// The entry named @p name, or null when the manifest does not list it.
  const BundleEntry* find(const std::string& name) const;

  std::size_t okCount() const;
};

/// Input to writeBundle: the manifest facts plus, for ok corners, the path
/// of the worker-produced `.prox` artifact to embed.
struct BundleWriteEntry {
  cells::Corner corner;
  BundleCornerStatus status = BundleCornerStatus::Missing;
  std::string reason;
  std::string proxPath;  ///< read + embedded when status == Ok
};

/// Assembles and atomically writes the bundle (temp + fsync + rename; a
/// crash mid-write leaves the previous file or none).  Throws
/// DiagnosticError(IoError) when an artifact cannot be read.
void writeBundle(const std::string& path,
                 const std::vector<BundleWriteEntry>& entries);

/// Parses a bundle from @p text (@p pathForDiag labels diagnostics),
/// validating manifest line CRCs, declared section lengths and section
/// CRCs, and loading each ok corner's model.  Throws typed DiagnosticError
/// (ParseError / ResourceExhausted) on malformation; a quarantined or
/// missing corner is *not* an error here -- holes are data, policy is
/// applied at selectCorner time.
Bundle parseBundle(const std::string& text, const std::string& pathForDiag);

/// readFileBounded + parseBundle.
Bundle loadBundleFile(const std::string& path);

/// Result of resolving a requested corner against a bundle.
struct CornerSelection {
  const BundleEntry* entry = nullptr;  ///< the entry actually served
  bool degraded = false;  ///< true when a nearest-corner substitution happened
  std::string requested;  ///< the name that was asked for
};

/// Resolves @p name against @p bundle under @p policy.  A characterized
/// corner is served directly.  A quarantined/missing corner either throws
/// DiagnosticError(StructuralError) (Reject) or degrades to the nearest
/// characterized corner by cells::cornerDistance, bumping the
/// fleet.bundle.nearest_fallbacks counter and recording a Warning into
/// @p log when provided (Degrade).  A name the manifest does not list at
/// all, or a bundle with no characterized corner to degrade to, is always
/// StructuralError -- there is nothing defensible to serve.
CornerSelection selectCorner(const Bundle& bundle, const std::string& name,
                             MissingCornerPolicy policy,
                             support::DiagnosticLog* log = nullptr);

}  // namespace prox::fleet
