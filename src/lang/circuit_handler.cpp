#include "qutes/lang/circuit_handler.hpp"

#include "qutes/circuit/executor.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"

namespace qutes::lang {

namespace {
constexpr std::size_t kMaxProgramQubits = 26;
}  // namespace

QuantumCircuitHandler::QuantumCircuitHandler(std::uint64_t seed) : rng_(seed) {}

std::string QuantumCircuitHandler::unique_name(const std::string& base,
                                               const char* fallback) {
  const std::string stem = base.empty() ? fallback : base;
  const std::size_t count = name_counters_[stem]++;
  return count == 0 ? stem : stem + "_" + std::to_string(count);
}

QuantumRef QuantumCircuitHandler::allocate(const std::string& name, std::size_t width,
                                           TypeKind kind) {
  if (width == 0) throw LangError("cannot allocate an empty quantum register", {});
  if (num_qubits() + width > kMaxProgramQubits) {
    throw LangError("program exceeds the simulator budget of " +
                        std::to_string(kMaxProgramQubits) + " qubits",
                    {});
  }
  const auto& reg = circuit_.add_register(unique_name(name, "q"), width);
  if (state_) {
    state_->add_qubits(width);
  } else {
    state_.emplace(width);
  }
  return QuantumRef{reg.offset, reg.size, kind};
}

const sim::StateVector& QuantumCircuitHandler::state() const {
  if (!state_) throw LangError("no quantum state allocated yet", {});
  return *state_;
}

void QuantumCircuitHandler::apply(circ::Instruction instruction) {
  circuit_.append(instruction);  // validates operands
  circ::apply_gate(*state_, instruction);
}

namespace {
circ::Instruction gate1(circ::GateType type, std::size_t q,
                        std::vector<double> params = {}) {
  circ::Instruction in;
  in.type = type;
  in.qubits = {q};
  in.params = std::move(params);
  return in;
}
}  // namespace

void QuantumCircuitHandler::h(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::H, ref.offset + i));
  }
}

void QuantumCircuitHandler::x(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::X, ref.offset + i));
  }
}

void QuantumCircuitHandler::y(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::Y, ref.offset + i));
  }
}

void QuantumCircuitHandler::z(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::Z, ref.offset + i));
  }
}

void QuantumCircuitHandler::s(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::S, ref.offset + i));
  }
}

void QuantumCircuitHandler::t(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::T, ref.offset + i));
  }
}

void QuantumCircuitHandler::phase(double lambda, const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    apply(gate1(circ::GateType::P, ref.offset + i, {lambda}));
  }
}

void QuantumCircuitHandler::cx(std::size_t control, std::size_t target) {
  circ::Instruction in;
  in.type = circ::GateType::CX;
  in.qubits = {control, target};
  apply(std::move(in));
}

void QuantumCircuitHandler::swap(std::size_t a, std::size_t b) {
  circ::Instruction in;
  in.type = circ::GateType::SWAP;
  in.qubits = {a, b};
  apply(std::move(in));
}

void QuantumCircuitHandler::barrier() {
  if (num_qubits() == 0) return;
  circ::Instruction in;
  in.type = circ::GateType::Barrier;
  circuit_.append(std::move(in));
}

void QuantumCircuitHandler::encode_bits(const QuantumRef& ref, std::uint64_t value) {
  if (ref.width < 64 && value >= dim_of(ref.width)) {
    throw LangError("value " + std::to_string(value) + " does not fit in " +
                        std::to_string(ref.width) + " qubits",
                    {});
  }
  for (std::size_t i = 0; i < ref.width; ++i) {
    if (test_bit(value, i)) apply(gate1(circ::GateType::X, ref.offset + i));
  }
}

void QuantumCircuitHandler::copy_basis(const QuantumRef& src, const QuantumRef& dst) {
  const std::size_t width = std::min(src.width, dst.width);
  for (std::size_t i = 0; i < width; ++i) {
    cx(src.offset + i, dst.offset + i);
  }
}

std::uint64_t QuantumCircuitHandler::measure(const QuantumRef& ref) {
  const auto& creg =
      circuit_.add_classical_register(unique_name("m", "m"), ref.width);
  clbit_values_.resize(circuit_.num_clbits(), 0);
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < ref.width; ++i) {
    const int bit = state_->measure(ref.offset + i, rng_);
    circuit_.measure(ref.offset + i, creg[i]);
    clbit_values_[creg[i]] = bit;
    if (bit) result = set_bit(result, i);
  }
  return result;
}

void QuantumCircuitHandler::reset(const QuantumRef& ref) {
  for (std::size_t i = 0; i < ref.width; ++i) {
    circ::Instruction in;
    in.type = circ::GateType::Reset;
    in.qubits = {ref.offset + i};
    circuit_.append(in);
    state_->reset_qubit(ref.offset + i, rng_);
  }
}

std::uint64_t QuantumCircuitHandler::compose_inline(const circ::QuantumCircuit& sub,
                                                    const std::string& prefix) {
  // Fresh registers mirroring the sub-circuit's layout.
  std::vector<std::size_t> qubit_map(sub.num_qubits());
  for (const auto& reg : sub.qregs()) {
    const QuantumRef ref = allocate(prefix + "_" + reg.name, reg.size, TypeKind::Quint);
    for (std::size_t i = 0; i < reg.size; ++i) qubit_map[reg[i]] = ref.offset + i;
  }
  std::vector<std::size_t> clbit_map(sub.num_clbits());
  for (const auto& reg : sub.cregs()) {
    const auto& creg = circuit_.add_classical_register(
        unique_name(prefix + "_" + reg.name, "c"), reg.size);
    for (std::size_t i = 0; i < reg.size; ++i) clbit_map[reg[i]] = creg[i];
  }
  clbit_values_.resize(circuit_.num_clbits(), 0);

  std::uint64_t sub_clbits = 0;
  for (const circ::Instruction& src : sub.instructions()) {
    circ::Instruction in = src;
    for (std::size_t& q : in.qubits) q = qubit_map[q];
    for (std::size_t& c : in.clbits) c = clbit_map[c];
    if (in.condition) in.condition->clbit = clbit_map[in.condition->clbit];

    if (in.condition &&
        clbit_values_[in.condition->clbit] != in.condition->value) {
      circuit_.append(in);  // log it; skipped at runtime this trajectory
      continue;
    }
    if (in.type == circ::GateType::Measure) {
      circuit_.append(in);
      for (std::size_t i = 0; i < in.qubits.size(); ++i) {
        const int bit = state_->measure(in.qubits[i], rng_);
        clbit_values_[in.clbits[i]] = bit;
      }
      continue;
    }
    if (in.type == circ::GateType::Reset) {
      circuit_.append(in);
      state_->reset_qubit(in.qubits[0], rng_);
      continue;
    }
    if (in.type == circ::GateType::Barrier) {
      circuit_.append(in);
      continue;
    }
    apply(std::move(in));
  }
  // Pack the sub-circuit's classical bits (in its own ordering).
  for (std::size_t c = 0; c < sub.num_clbits(); ++c) {
    if (clbit_values_[clbit_map[c]]) sub_clbits = set_bit(sub_clbits, c);
  }
  return sub_clbits;
}

std::vector<std::size_t> QuantumCircuitHandler::qubits_of(const QuantumRef& ref) {
  std::vector<std::size_t> qubits(ref.width);
  for (std::size_t i = 0; i < ref.width; ++i) qubits[i] = ref.offset + i;
  return qubits;
}

}  // namespace qutes::lang
