#include "characterize/checkpoint.hpp"

#include "obs/registry.hpp"
#include "support/durable_io.hpp"

namespace prox::characterize {

namespace {

// Canonical text rendering the fingerprint digests.  Doubles go in as raw
// bit patterns: two configs whose grids differ in the last ulp are different
// runs (their journaled results would differ in the last ulp too).
void addToken(std::string& s, const std::string& t) {
  s += ' ';
  s += t;
}

void addInt(std::string& s, long long v) { addToken(s, std::to_string(v)); }

void addDouble(std::string& s, double v) {
  addToken(s, support::hex64(support::doubleToBits(v)));
}

void addGrid(std::string& s, const std::vector<double>& g) {
  addInt(s, static_cast<long long>(g.size()));
  for (double v : g) addDouble(s, v);
}

void addTechnology(std::string& s, const cells::Technology& tech) {
  addDouble(s, tech.vdd);
  addDouble(s, tech.coxPerArea);
  addDouble(s, tech.overlapCapPerWidth);
  addDouble(s, tech.junctionCapPerWidth);
  for (const spice::MosfetParams* p : {&tech.nmos, &tech.pmos}) {
    addInt(s, p->nmos ? 1 : 0);
    addInt(s, static_cast<long long>(p->equation));
    addDouble(s, p->w);
    addDouble(s, p->l);
    addDouble(s, p->kp);
    addDouble(s, p->vt0);
    addDouble(s, p->lambda);
    addDouble(s, p->gamma);
    addDouble(s, p->phi);
    addDouble(s, p->alpha);
    addDouble(s, p->pc);
    addDouble(s, p->pv);
  }
}

// Result-affecting configuration fields only: threads and the checkpoint /
// cancel bindings are execution knobs and deliberately absent, so a journal
// written at --threads=8 resumes under --threads=1 (and vice versa).  The
// trailing "1 1 1" digests the fixed sweep rules (partner = next pin,
// healing on, one retry) as earlier journals recorded them, so those
// journals keep resuming.
void addConfig(std::string& s, const CharacterizationConfig& config) {
  addGrid(s, config.tauGrid);
  addInt(s, static_cast<long long>(config.dualTauIndices.size()));
  for (std::size_t idx : config.dualTauIndices) {
    addInt(s, static_cast<long long>(idx));
  }
  addGrid(s, config.vGrid);
  addGrid(s, config.wGrid);
  addGrid(s, config.vGridTransition);
  addGrid(s, config.wGridTransition);
  addDouble(s, config.vtcStep);
  addDouble(s, config.stepTau);
  s += " 1 1 1";
}

std::string digest(const std::string& text) {
  return "ckpt1-" + support::hex32(support::crc32(text));
}

std::string replayKey(const std::string& scope, std::uint64_t index) {
  return scope + '#' + std::to_string(index);
}

}  // namespace

std::string configFingerprint(const cells::CellSpec& spec,
                              const CharacterizationConfig& config) {
  std::string s = "cell";
  addToken(s, cells::gateTypeName(spec.type, spec.fanin));
  addInt(s, spec.fanin);
  addDouble(s, spec.wn);
  addDouble(s, spec.wp);
  addDouble(s, spec.loadCap);
  addTechnology(s, spec.tech);
  addConfig(s, config);
  return digest(s);
}

std::string configFingerprint(const cells::ComplexCellSpec& spec,
                              const CharacterizationConfig& config) {
  std::string s = "complex";
  addToken(s, spec.pulldown.toString());
  addDouble(s, spec.wn);
  addDouble(s, spec.wp);
  addDouble(s, spec.loadCap);
  addTechnology(s, spec.tech);
  addConfig(s, config);
  return digest(s);
}

CheckpointSession::CheckpointSession(
    const std::string& path, const std::string& fingerprint, bool resume,
    const support::Journal::Options& journalOptions) {
  journal_.setOptions(journalOptions);
  if (resume) {
    std::vector<support::JournalRecord> records =
        journal_.openResume(path, fingerprint);
    resumed_ = !records.empty();
    for (support::JournalRecord& r : records) {
      // Duplicate (scope, index) pairs cannot arise from the sweep engine
      // (each task records at most once), but a journal that resumed twice
      // may carry recomputed points near a torn tail; last record wins,
      // matching what the final computation wrote.
      replay_[replayKey(r.scope, r.index)] = std::move(r.words);
    }
  } else {
    journal_.openFresh(path, fingerprint);
  }
}

bool CheckpointSession::lookup(const std::string& scope, std::uint64_t index,
                               std::vector<std::uint64_t>* words) const {
  const auto it = replay_.find(replayKey(scope, index));
  if (it == replay_.end()) return false;
  *words = it->second;
  replayHits_.fetch_add(1, std::memory_order_relaxed);
  PROX_OBS_COUNT("characterize.checkpoint.points_replayed", 1);
  return true;
}

void CheckpointSession::record(const std::string& scope, std::uint64_t index,
                               const std::vector<std::uint64_t>& words) {
  journal_.append(scope, index, words);
  PROX_OBS_COUNT("characterize.checkpoint.points_recorded", 1);
}

void CheckpointSession::flush() {
  if (journal_.isOpen()) journal_.sync();
}

}  // namespace prox::characterize
