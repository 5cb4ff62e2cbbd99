// lang::Bytecode — the flat compiled form of a Qutes program.
//
// A program lowers (lower.hpp) to one `Chunk` per callable — chunk 0 is the
// top level, one more per user/stdlib function — each a linear instruction
// stream over a shared constant pool (strings, floats, types, source
// locations). The Vm (vm.hpp) executes chunks with a stack discipline and
// frame-indexed variable slots: name resolution, scope-chain walks, and
// double dispatch all happen once at lowering time instead of once per
// executed node.
//
// The artifact is versioned and serializable (save/load) with a content hash
// of the originating source, so a service front end (ROADMAP item 1,
// `qutesd`) can cache lowered programs across requests and skip
// lex/parse/lower entirely on a hash hit. load() fully validates the
// artifact — magic, version, section sizes, every operand index and jump
// target — and rejects corrupt or truncated files with a LangError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qutes/common/cache_key.hpp"
#include "qutes/common/error.hpp"
#include "qutes/lang/qtype.hpp"

namespace qutes::lang {

enum class Op : std::uint8_t {
  // ---- constants & stack ---------------------------------------------------
  PushInt,     ///< a = value
  PushFloat,   ///< b = float pool index
  PushBool,    ///< a = 0/1
  PushString,  ///< b = string pool index
  Pop,         ///< discard an expression-statement result
  // ---- quantum literals ----------------------------------------------------
  QuintLit,     ///< a = literal value; promote onto a fresh "qlit" register
  QustringLit,  ///< b = string pool index ("qslit" register)
  KetState,     ///< a = KetKind
  SupBegin,     ///< open a superposition-literal builder
  SupElem,      ///< pop one element into the open builder (checks interleave)
  SupEnd,       ///< close builder; push the prepared register
  ArrBegin,     ///< open a classical array-literal builder
  ArrElem,      ///< pop one element into it (nested-array check)
  ArrEnd,       ///< close; push the array value
  // ---- variables (slots resolved at lowering time) -------------------------
  LoadLocal,    ///< b = slot (throws "use of undeclared" when unbound)
  LoadGlobal,   ///< b = slot in the top-level frame
  CheckLocal,   ///< b = slot: assignment-target pre-check, before the rhs runs
  CheckGlobal,  ///< b = slot
  AssignLocal,  ///< b = slot: pop rhs, assign through the shared Runtime rules
  AssignGlobal, ///< b = slot
  CompoundLocal,  ///< a = BinaryOp, b = slot: pop rhs, `slot op= rhs`
  CompoundGlobal, ///< a = BinaryOp, b = slot
  CheckIndexTarget, ///< peek: target of an index assignment must be an array
  IndexPrep,    ///< pop index, validate against peeked array, push classical
  AssignIndex,  ///< pop rhs, index, target: `target[index] = rhs`
  CompoundIndex,///< a = BinaryOp: pop rhs, index, target
  IndexGet,     ///< pop index, target: push `target[index]` (read rules)
  // ---- declarations --------------------------------------------------------
  Declare,         ///< b = slot, c = type: redeclaration check, bind later
  BindInit,        ///< b = slot, c = type: pop initializer, coerce, bind
  DeclareDefault,  ///< b = slot, c = type: declare + default-initialize
  DeclarePromoteInt,    ///< a = literal, b = slot, c = type (quantum fast path)
  DeclarePromoteString, ///< a = string pool index, b = slot, c = type
  ScopeExit,       ///< b = scope pool index: clear that lexical scope's slots
  // ---- operators -----------------------------------------------------------
  UnaryApply,   ///< a = UnaryOp
  BinaryApply,  ///< a = BinaryOp (non-short-circuit)
  ToBool,       ///< pop; push Bool(condition_bool) — measures quantum operands
  // ---- control flow --------------------------------------------------------
  Jump,            ///< a = target pc
  JumpIfFalse,     ///< a = target pc; pop condition (condition_bool rules)
  JumpIfFalsePeek, ///< a = target pc; top already Bool, kept on the stack
  JumpIfTruePeek,  ///< a = target pc
  LoopReset,       ///< b = loop counter index
  LoopBump,        ///< b = loop counter index; throws on budget exhaustion
  ForeachInit,     ///< b = iterator index; pop iterable, expand to items
  ForeachNext,     ///< a = exit pc, b = iterator index, c = loop-variable slot
  // ---- calls ---------------------------------------------------------------
  CallBuiltin,  ///< a = argc, b = builtin name (string pool)
  CallUser,     ///< a = argc, b = callee chunk index
  Return,       ///< a = 1 if a return value is on the stack
  // ---- statements ----------------------------------------------------------
  Print,      ///< pop; render and emit
  Barrier,
  GateApply,  ///< a = GateKind; pop one operand (arrays broadcast)
  // ---- runtime-deferred diagnostics ---------------------------------------
  // Names that do not resolve at lowering time are not lowering errors — the
  // statement may never execute. These reproduce the tree-walk's runtime
  // messages at the exact point the reference would raise them.
  ThrowUseUndeclared,    ///< b = name (string pool)
  ThrowAssignUndeclared, ///< b = name
  ThrowUnknownFunction,  ///< b = name
};

/// Count of Op values (loader range validation).
inline constexpr std::uint8_t kOpCount =
    static_cast<std::uint8_t>(Op::ThrowUnknownFunction) + 1;

[[nodiscard]] const char* op_name(Op op) noexcept;

struct Instr {
  Op op = Op::Pop;
  std::int64_t a = 0;   ///< immediate / enum / jump target / argc
  std::uint32_t b = 0;  ///< slot / pool index
  std::uint32_t c = 0;  ///< secondary pool index (type, slot)
  std::uint32_t loc = 0;  ///< index into Bytecode::locations
};

struct ParamInfo {
  std::uint32_t name = 0;  ///< string pool
  std::uint32_t type = 0;  ///< type pool
};

struct Chunk {
  std::uint32_t name = 0;         ///< string pool; "" for the top level
  std::vector<ParamInfo> params;
  std::uint32_t return_type = 0;  ///< type pool (Void for the top level)
  std::uint32_t num_slots = 0;
  std::vector<std::uint32_t> slot_names;  ///< string pool, one per slot
  std::uint32_t num_loops = 0;    ///< while-loop budget counters
  std::uint32_t num_iters = 0;    ///< foreach iterator states
  /// Slots cleared together by one ScopeExit (a lexical scope's own
  /// declarations; nested scopes clear their own).
  std::vector<std::vector<std::uint32_t>> scopes;
  std::vector<Instr> code;
  /// Index of the first parameter that redeclares an earlier one, if any.
  /// The reference interpreter coerces the preceding arguments (observable:
  /// coercion can measure) and then raises the redeclaration error at call
  /// time; the Vm replicates that order.
  std::optional<std::uint32_t> duplicate_param;
};

struct Bytecode {
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t source_hash = 0;  ///< fnv1a64 of the source text
  std::vector<std::string> strings;
  std::vector<double> floats;
  std::vector<QType> types;
  std::vector<SourceLocation> locations;
  std::vector<Chunk> chunks;  ///< chunk 0 = top level

  [[nodiscard]] std::size_t total_ops() const;

  /// Structural validation: every operand index, enum value, and jump target
  /// in range. Throws LangError ("bytecode: ...") on the first violation.
  /// load() always runs this; the lowerer's output is valid by construction.
  /// Chunks [checked_begin, checked_end) are taken as checked already: a
  /// lowering that links the stdlib image skips the image's chunks.
  void validate(std::size_t checked_begin = 0, std::size_t checked_end = 0) const;

  /// Versioned binary artifact (little-endian). save() throws Error on I/O
  /// failure; load() throws LangError on I/O failure, bad magic, version
  /// mismatch, truncation, or validation failure.
  void save(const std::string& path) const;
  [[nodiscard]] static Bytecode load(const std::string& path);

  /// Byte-serialized image (what save() writes) — also handy for tests.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static Bytecode deserialize(const std::uint8_t* data,
                                            std::size_t size);

  /// Human-readable listing (CLI --dump-bytecode).
  [[nodiscard]] std::string disassemble() const;
};

/// FNV-1a 64-bit content hash (artifact cache key ingredient). The
/// implementation moved to qutes::fnv1a64 (common/cache_key.hpp) so the
/// service compile cache shares it; this alias keeps existing callers
/// working.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::string& data) noexcept {
  return qutes::fnv1a64(data);
}

}  // namespace qutes::lang
