// The Qutes standard library (paper §6: "developing a comprehensive
// standard library containing essential quantum functions and algorithms").
//
// The library is written in Qutes itself — the functions below are parsed
// by the same front end and their bodies run through the same interpreter
// as user code, which both dogfoods the language and keeps the library
// trivially extensible. User programs may call any of these but may not
// redefine them.
//
// The library is built once per process into the stdlib image: its AST, its
// function table and its lowered chunks. compile_source() starts every
// program's function table from a copy of the image's table, unless
// RunConfig disables the library, and lower() links the image's chunks
// instead of lowering the library again (lower.hpp). One lowering serves
// every program because every name in a stdlib function resolves to a
// local, a builtin or another stdlib function, never to a program's global
// or function (test_stdlib pins it).
#pragma once

#include <string>
#include <vector>

#include "qutes/lang/ast.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/symbol_table.hpp"

namespace qutes::lang {

/// Full source text of the standard library.
[[nodiscard]] const std::string& stdlib_source();

/// Names defined by the standard library (for diagnostics/tools).
[[nodiscard]] const std::vector<std::string>& stdlib_function_names();

/// What every program shares of the stdlib (DESIGN.md §13).
struct StdlibImage {
  Program program;          ///< the parsed stdlib; owns what `functions` points to
  FunctionTable functions;  ///< the stdlib's functions only
  /// Chunk 0 = an empty main, then the stdlib functions in name order.
  LoweredLibrary lowered;
};

/// The stdlib image, built on first use (thread-safe) and never destroyed:
/// every table compile_source() builds points into its AST, and a detached
/// qutesd connection thread may still compile or run while static
/// destructors run at exit. Nothing writes to it after the build, so any
/// number of threads read it at once.
[[nodiscard]] const StdlibImage& stdlib_image();

}  // namespace qutes::lang
