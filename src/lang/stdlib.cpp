#include "qutes/lang/stdlib.hpp"

#include <memory>
#include <vector>

#include "qutes/lang/diagnostics.hpp"
#include "qutes/lang/parser.hpp"
#include "qutes/lang/symbol_collector.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::lang {

const std::string& stdlib_source() {
  static const std::string source = R"qutes(
// ===== Qutes standard library ==============================================
// Written in Qutes. Built once per process and linked into every program.

// ---- classical helpers -----------------------------------------------------

int abs_i(int x) {
  if (x < 0) { return -x; }
  return x;
}

int min_i(int a, int b) {
  if (a < b) { return a; }
  return b;
}

int max_i(int a, int b) {
  if (a > b) { return a; }
  return b;
}

int pow_i(int base, int exponent) {
  int result = 1;
  while (exponent > 0) {
    result *= base;
    exponent -= 1;
  }
  return result;
}

int sum(int[] xs) {
  int total = 0;
  foreach x in xs { total += x; }
  return total;
}

int count(int[] xs, int key) {
  int hits = 0;
  foreach x in xs {
    if (x == key) { hits += 1; }
  }
  return hits;
}

bool contains(int[] xs, int key) {
  return count(xs, key) > 0;
}

// ---- quantum state preparation ----------------------------------------------

// Put every qubit of a register into |+>.
void superpose(quint x) {
  hadamard x;
}

// Flip every qubit (the register-wide NOT).
void flip_all(quint x) {
  foreach b in x { not b; }
}

// GHZ state over three qubits: (|000> + |111>)/sqrt(2).
void ghz3(qubit a, qubit b, qubit c) {
  hadamard a;
  cx(a, b);
  cx(b, c);
}

// ---- quantum randomness -------------------------------------------------------

// A genuinely quantum coin flip: measure |+>.
bool coin() {
  qubit q = |+>;
  bool r = q;
  return r;
}

// Uniform quantum random integer with `bits` bits.
int qrandom(int bits) {
  int result = 0;
  int i = 0;
  while (i < bits) {
    result = result * 2;
    if (coin()) { result += 1; }
    i += 1;
  }
  return result;
}

// ---- protocols ------------------------------------------------------------------

// Teleport the state of `msg` onto `receiver` using `carrier` as the shared
// entanglement resource. All three must be distinct qubits; msg and carrier
// end up measured.
void teleport(qubit msg, qubit carrier, qubit receiver) {
  bell(carrier, receiver);
  cx(msg, carrier);
  hadamard msg;
  bool m0 = msg;
  bool m1 = carrier;
  if (m1) { not receiver; }
  if (m0) { pauliz receiver; }
}

// Entanglement swap: Bell-measure the middles of two Bell pairs (a,b), (c,d)
// and correct d, leaving (a, d) entangled.
void entanglement_swap(qubit b, qubit c, qubit d) {
  cx(b, c);
  hadamard b;
  bool mz = b;
  bool mx = c;
  if (mx) { not d; }
  if (mz) { pauliz d; }
}

// ---- algorithm wrappers ------------------------------------------------------------

// Deutsch-Jozsa driver for the parity-mask oracle family: returns true if
// f(x) = mask.x is (trivially) constant, i.e. mask == 0, using one quantum
// query on a 4-bit register.
bool dj_is_constant4(int mask) {
  quint<4> x = 0q;
  qubit y = |->;
  hadamard x;
  // parity oracle: cx from each mask bit into y
  if (mask - mask / 2 * 2 == 1) { cx(x[0], y); }
  if (mask / 2 - mask / 4 * 2 == 1) { cx(x[1], y); }
  if (mask / 4 - mask / 8 * 2 == 1) { cx(x[2], y); }
  if (mask / 8 - mask / 16 * 2 == 1) { cx(x[3], y); }
  hadamard x;
  int v = x;
  return v == 0;
}
)qutes";
  return source;
}

const std::vector<std::string>& stdlib_function_names() {
  static const std::vector<std::string> names = {
      "abs_i",   "min_i",    "max_i",   "pow_i",     "sum",
      "count",   "contains", "superpose", "flip_all", "ghz3",
      "coin",    "qrandom",  "teleport", "entanglement_swap",
      "dj_is_constant4",
  };
  return names;
}

const StdlibImage& stdlib_image() {
  static const StdlibImage* const image = [] {
    auto built = std::make_unique<StdlibImage>();
    {
      obs::Span span("lang.parse_stdlib");
      built->program = parse(stdlib_source());
      DiagnosticEngine diagnostics;
      SymbolCollector(built->functions, diagnostics).collect(built->program);
    }
    obs::Span span("lang.lower_stdlib");
    built->lowered = lower_library(built->functions);
    return built.release();
  }();
  return *image;
}

}  // namespace qutes::lang
