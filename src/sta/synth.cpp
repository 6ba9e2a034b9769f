#include "sta/synth.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace prox::sta {

namespace {

/// SplitMix64 finalizer: the avalanche core of the counter-based stream.
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

// Gate-key namespaces for decisions that are not per-gate: layer-level
// choices and the primary-input stimulus.  Real gate indices are < 2^63, so
// the high bit cleanly separates the spaces.
constexpr std::uint64_t kLayerKey = 0x8000000000000000ULL;
constexpr std::uint64_t kInputKey = 0xC000000000000000ULL;

std::uint32_t faninCapFor(const SynthSpec& spec, std::uint32_t sourceCount) {
  return spec.maxFanin < sourceCount ? spec.maxFanin : sourceCount;
}

std::string inputNetName(std::uint32_t k) { return "pi" + std::to_string(k); }

std::string gateNetName(std::uint32_t layer, std::uint32_t pos) {
  return "n" + std::to_string(layer) + "_" + std::to_string(pos);
}

std::string sourceNetName(std::uint32_t layer, std::uint32_t sourceIndex) {
  return layer == 0 ? inputNetName(sourceIndex)
                    : gateNetName(layer - 1, sourceIndex);
}

/// Emits "<card> net net ..." wrapped at @p perLine names per line with
/// BLIF '\' continuations, so large circuits also exercise the reader's
/// continuation handling.
void emitNetCard(std::ostream& os, const char* card,
                 const std::vector<std::string>& nets,
                 std::size_t perLine = 10) {
  os << card;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (i != 0 && i % perLine == 0) os << " \\\n ";
    os << ' ' << nets[i];
  }
  os << '\n';
}

}  // namespace

std::uint64_t synthRandom(std::uint64_t seed, std::uint64_t gate,
                          std::uint64_t slot) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = mix64(z ^ mix64(gate + 0x9e3779b97f4a7c15ULL));
  z = mix64(z ^ mix64(slot + 0x632be59bd9b4e019ULL));
  return z;
}

void validateSynthSpec(const SynthSpec& spec) {
  if (spec.depth == 0) throw std::invalid_argument("SynthSpec: depth == 0");
  if (spec.width == 0) throw std::invalid_argument("SynthSpec: width == 0");
  if (spec.primaryInputs == 0) {
    throw std::invalid_argument("SynthSpec: primaryInputs == 0");
  }
  if (spec.maxFanin == 0) {
    throw std::invalid_argument("SynthSpec: maxFanin == 0");
  }
  if (spec.nandWeight + spec.norWeight + spec.invWeight == 0) {
    throw std::invalid_argument("SynthSpec: all gate-mix weights are zero");
  }
  if (spec.modelName.empty()) {
    throw std::invalid_argument("SynthSpec: empty model name");
  }
  if (spec.maxFanout != 0) {
    // Worst-case demand on a source layer is width * maxFanin consumer
    // slots; the scarcest source layer has min(primaryInputs, width) nets.
    const std::uint64_t scarcest =
        spec.primaryInputs < spec.width ? spec.primaryInputs : spec.width;
    const std::uint64_t demand =
        static_cast<std::uint64_t>(spec.width) * spec.maxFanin;
    if (static_cast<std::uint64_t>(spec.maxFanout) * scarcest < demand) {
      throw std::invalid_argument(
          "SynthSpec: maxFanout * min(primaryInputs, width) < width * "
          "maxFanin -- no legal fanout assignment exists");
    }
  }
}

SynthGate synthGateAt(const SynthSpec& spec, std::uint64_t index) {
  const std::uint32_t layer = static_cast<std::uint32_t>(index / spec.width);
  const std::uint32_t pos = static_cast<std::uint32_t>(index % spec.width);
  const std::uint32_t sourceCount =
      layer == 0 ? spec.primaryInputs : spec.width;
  const std::uint32_t faninCap = faninCapFor(spec, sourceCount);

  SynthGate gate;
  // Type: weighted pick; fanin-1 gates are always inverters so the emitted
  // BLIF cover round-trips to the same cell the direct build uses.
  const std::uint64_t weightSum =
      spec.nandWeight + spec.norWeight + spec.invWeight;
  const std::uint64_t roll = synthRandom(spec.seed, index, 0) % weightSum;
  std::uint32_t fanin = 1;
  if (faninCap < 2 || roll >= spec.nandWeight + spec.norWeight) {
    gate.type = cells::GateType::Inverter;
  } else {
    gate.type = roll < spec.nandWeight ? cells::GateType::Nand
                                       : cells::GateType::Nor;
    fanin = 2 + static_cast<std::uint32_t>(synthRandom(spec.seed, index, 1) %
                                           (faninCap - 1));
  }

  gate.sources.reserve(fanin);
  if (spec.maxFanout != 0) {
    // Bounded-fanout assignment: gate (layer, pos) owns the consumer-slot
    // window [pos * maxFanin, pos * maxFanin + fanin) and slot s feeds
    // source (s + rotation) mod sourceCount.  Windows are disjoint
    // intervals, so each source serves at most ceil(width * maxFanin /
    // sourceCount) <= maxFanout consumers (the validate() feasibility
    // condition), and fanin <= sourceCount consecutive slots are distinct
    // mod sourceCount.  The per-layer random rotation keeps the wiring
    // seed-dependent without breaking the interval structure.
    const std::uint64_t rotation =
        synthRandom(spec.seed, kLayerKey | layer, 0) % sourceCount;
    const std::uint64_t base =
        static_cast<std::uint64_t>(pos) * spec.maxFanin + rotation;
    for (std::uint32_t i = 0; i < fanin; ++i) {
      gate.sources.push_back(
          static_cast<std::uint32_t>((base + i) % sourceCount));
    }
  } else {
    // Unbounded fanout: independent random picks, linear probing past
    // duplicates (fanin <= sourceCount, so a free source always exists).
    for (std::uint32_t i = 0; i < fanin; ++i) {
      std::uint32_t pick = static_cast<std::uint32_t>(
          synthRandom(spec.seed, index, 16 + i) % sourceCount);
      for (bool taken = true; taken;) {
        taken = false;
        for (const std::uint32_t s : gate.sources) {
          if (s == pick) {
            pick = (pick + 1) % sourceCount;
            taken = true;
            break;
          }
        }
      }
      gate.sources.push_back(pick);
    }
  }
  return gate;
}

void generateBlif(const SynthSpec& spec, std::ostream& os) {
  validateSynthSpec(spec);
  os << ".model " << spec.modelName << '\n';

  std::vector<std::string> inputs;
  inputs.reserve(spec.primaryInputs);
  for (std::uint32_t k = 0; k < spec.primaryInputs; ++k) {
    inputs.push_back(inputNetName(k));
  }
  emitNetCard(os, ".inputs", inputs);

  std::vector<std::string> outputs;
  outputs.reserve(spec.width);
  for (std::uint32_t j = 0; j < spec.width; ++j) {
    outputs.push_back(gateNetName(spec.depth - 1, j));
  }
  emitNetCard(os, ".outputs", outputs);

  for (std::uint32_t layer = 0; layer < spec.depth; ++layer) {
    for (std::uint32_t pos = 0; pos < spec.width; ++pos) {
      const std::uint64_t index =
          static_cast<std::uint64_t>(layer) * spec.width + pos;
      const SynthGate gate = synthGateAt(spec, index);
      os << ".names";
      for (const std::uint32_t s : gate.sources) {
        os << ' ' << sourceNetName(layer, s);
      }
      os << ' ' << gateNetName(layer, pos) << '\n';
      // Single-row canonical covers (see blif.hpp's supported subset).
      const std::size_t k = gate.sources.size();
      switch (gate.type) {
        case cells::GateType::Inverter:
          os << "0 1\n";
          break;
        case cells::GateType::Nand:
          os << std::string(k, '1') << " 0\n";
          break;
        case cells::GateType::Nor:
          os << std::string(k, '0') << " 1\n";
          break;
        case cells::GateType::Complex:
          break;  // never generated
      }
    }
  }
  os << ".end\n";
}

std::string generateBlifString(const SynthSpec& spec) {
  std::ostringstream os;
  generateBlif(spec, os);
  return os.str();
}

std::vector<std::string> buildNetlist(const SynthSpec& spec,
                                      const GateLibrary& library,
                                      Netlist* netlist) {
  validateSynthSpec(spec);
  // One net per input and per gate; no gate reads more pins than the widest
  // source layer offers or maxFanin allows.
  const std::size_t gates = spec.gateCount();
  netlist->reserve(spec.primaryInputs + gates, gates,
                   gates * faninCapFor(spec, std::max(spec.primaryInputs,
                                                      spec.width)));
  for (std::uint32_t k = 0; k < spec.primaryInputs; ++k) {
    netlist->addPrimaryInput(inputNetName(k));
  }
  for (std::uint32_t layer = 0; layer < spec.depth; ++layer) {
    for (std::uint32_t pos = 0; pos < spec.width; ++pos) {
      const std::uint64_t index =
          static_cast<std::uint64_t>(layer) * spec.width + pos;
      const SynthGate gate = synthGateAt(spec, index);
      const characterize::CharacterizedGate& cell = library.require(
          gate.type, static_cast<int>(gate.sources.size()));
      std::vector<std::string> inputNets;
      inputNets.reserve(gate.sources.size());
      for (const std::uint32_t s : gate.sources) {
        inputNets.push_back(sourceNetName(layer, s));
      }
      const std::string outNet = gateNetName(layer, pos);
      netlist->addInstance(outNet, cell, std::move(inputNets), outNet);
    }
  }
  std::vector<std::string> outputs;
  outputs.reserve(spec.width);
  for (std::uint32_t j = 0; j < spec.width; ++j) {
    outputs.push_back(gateNetName(spec.depth - 1, j));
  }
  return outputs;
}

std::vector<SynthArrival> synthInputArrivals(const SynthSpec& spec) {
  validateSynthSpec(spec);
  std::vector<SynthArrival> out;
  out.reserve(spec.primaryInputs);
  for (std::uint32_t k = 0; k < spec.primaryInputs; ++k) {
    const std::uint64_t key = kInputKey | k;
    SynthArrival a;
    a.net = inputNetName(k);
    a.arrival.time =
        static_cast<double>(synthRandom(spec.seed, key, 0) % 256) * 1.0e-12;
    a.arrival.slope =
        static_cast<double>(64 + synthRandom(spec.seed, key, 1) % 512) *
        1.0e-12;
    a.arrival.edge = wave::Edge::Rising;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace prox::sta
