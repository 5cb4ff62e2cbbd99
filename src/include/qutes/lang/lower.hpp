// AST -> bytecode lowering (the Vm's compile step).
//
// One pass over the typed AST per chunk, mirroring the tree-walk's scope
// state in lowering-time scope maps so every name resolves to a frame slot
// index exactly where the reference interpreter would have resolved it —
// names that don't resolve lower to Throw* ops that reproduce the runtime
// diagnostics if (and only if) the statement executes.
//
// The pass also performs the classical optimizations the tree-walk cannot:
// literal subtrees fold through the exact runtime operator rules
// (Runtime::classical_binary — same two's-complement wraparound, same IEEE
// results; subtrees whose evaluation would throw are left unfolded so the
// error still surfaces at runtime), short-circuit operators fold when the
// lhs decides, and statically-false/true conditions eliminate dead branches.
//
// Guards: the tree-walk bounds evaluate() recursion at kMaxEvalDepth; the
// lowerer enforces the same limit on static expression depth with the same
// message, and bounds statement nesting (belt over the parser's own guard),
// so lowering a pathological program raises LangError instead of
// overflowing the C++ stack.
//
// Linking: the stdlib is lowered once per process into the stdlib image
// (stdlib.hpp). When `functions` holds the image's own stdlib declarations,
// as every table compile_source() builds does, lower() starts from a copy
// of the image's bytecode, looks names up in the image's maps before its
// own, and lowers and validates only main and the user's functions. The layout is then chunk 0 = main, the stdlib chunks, the
// user's functions, each group in name order. Any other table (no stdlib,
// or a separately parsed one) lowers in full, every function in name order.
#pragma once

#include <string>
#include <unordered_map>

#include "qutes/lang/ast.hpp"
#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/symbol_table.hpp"

namespace qutes::lang {

/// Lower a parsed program (pass 1 must already have filled `functions`).
/// `source_hash` is stored in the artifact for cache keying (see
/// Bytecode::save); pass fnv1a64 of the source text.
[[nodiscard]] Bytecode lower(Program& program, const FunctionTable& functions,
                             std::uint64_t source_hash = 0);

/// The lowerer's state after lowering a function table with an empty main:
/// the artifact so far (chunk 0 = the empty main, then one chunk per
/// function in name order) and the maps a later lowering continues from.
struct LoweredLibrary {
  Bytecode bytecode;
  std::unordered_map<std::string, std::uint32_t> chunk_index;  ///< function -> chunk
  std::unordered_map<std::string, std::uint32_t> strings;      ///< string pool index
  std::unordered_map<std::uint64_t, std::uint32_t> locations;  ///< location pool index
};

/// Lower every function of `functions` with an empty main. The stdlib image
/// is built with it; it adds nothing to `lang.bytecode_ops`, which counts
/// the artifacts lower() returns.
[[nodiscard]] LoweredLibrary lower_library(const FunctionTable& functions);

}  // namespace qutes::lang
