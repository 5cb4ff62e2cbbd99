// The bytecode dispatch VM — the compiled execution engine.
//
// Executes lang::Bytecode (lower.hpp) with an explicit operand stack and an
// explicit frame stack: no per-node virtual dispatch, no recursion, no name
// lookups (slots were resolved at lowering time). The operand stack holds
// the classical scalars the VM creates inline, with no heap cell, and
// everything with identity as a shared Value cell (see Operand). Int and
// float arithmetic and comparison, truthiness, and same-kind scalar stores
// run inline and mirror Runtime's rules exactly; every other value-level
// operation delegates to the same lang::Runtime the tree-walking Interpreter
// uses. The two engines therefore produce bit-identical circuits,
// measurement draws, outputs, and diagnostics; `--exec-mode ast` keeps the
// tree-walk available as the differential reference.
//
// Each chunk is decoded once per Vm, when it is first entered (decode): one
// Kind per pc, either the pc's own Op or a kind decided there once. Where a
// straight-line int expression starts, that kind is a Run: its Load*,
// PushInt and BinaryApply instructions rewritten as three-address ops over
// a local int array, which the loop evaluates in one dispatch. The artifact
// itself is never rewritten, so its format, listing and jump targets stay
// as lowered.
//
// The VM is defensive against adversarial artifacts (a load()ed file is
// attacker-controlled input for a future qutesd daemon): the loader
// validates all static indices, the decoder accepts any artifact that
// validates, and the dispatch loop, runs included, uses checked stack pops
// and slot-null checks so even a semantically-nonsense instruction stream
// raises a clean LangError instead of corrupting memory.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/builtins.hpp"
#include "qutes/lang/runtime.hpp"

namespace qutes::lang {

struct VmOptions {
  std::uint64_t seed = 0x5eed0f5eedULL;
  /// Mirror `print` output here as well as capturing it (nullptr = capture
  /// only).
  std::ostream* echo = nullptr;
  /// Bindings for `param(...)` declarations, in declaration order
  /// (RunConfig::bind_params).
  std::vector<double> bind_params{};
  /// Evaluate unbound `param(...)` uses as 0.0 placeholders instead of
  /// erroring (the qutesd canonical compile).
  bool allow_unbound_params = false;
};

class Vm {
public:
  explicit Vm(const Bytecode& bytecode, VmOptions options = {});

  /// Execute the top-level chunk. Single-use, like the Interpreter: a thrown
  /// LangError leaves the VM dead.
  void run();

  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }

private:
  /// One operand-stack entry. A classical Bool/Int/Float the VM creates
  /// itself (a literal, an int or float arithmetic or comparison result, a
  /// truth value, a scalar a user function returns) is held inline, with no
  /// heap cell, and so is a void function's result (kind Void) and a string
  /// literal that only a comparison reads (kind String, pointing into the
  /// string pool). Everything with identity stays a ValuePtr: the variable
  /// cells Load* pushes (so `g + f()` reads `g` after `f` assigned it),
  /// arrays, strings, quantum references, builtin and index results.
  struct Operand {
    ValuePtr cell;                   ///< null while the operand is inline
    TypeKind kind = TypeKind::Void;  ///< Void, Bool, Int, Float or String when inline
    union {
      bool b;
      std::int64_t i = 0;
      double f;
      const std::string* s;
    };
    Operand() = default;
    explicit Operand(ValuePtr v) : cell(std::move(v)) {}
    explicit Operand(bool v) : kind(TypeKind::Bool), b(v) {}
    explicit Operand(std::int64_t v) : kind(TypeKind::Int), i(v) {}
    explicit Operand(double v) : kind(TypeKind::Float), f(v) {}
    explicit Operand(const std::string* v) : kind(TypeKind::String), s(v) {}
  };

  /// What the dispatch loop runs at one pc. Values below kOpCount are the
  /// pc's own Op, run alone; the rest are decoded kinds (DESIGN.md §13).
  /// Every pc has a kind, so a jump into the middle of a run dispatches
  /// the landing pc's own kind.
  enum class Kind : std::uint8_t {
    /// A straight-line int expression (Run), evaluated in one dispatch when
    /// every operand it reads is a bound Int; otherwise its head runs alone.
    Run = kOpCount,
    /// `LoopBump; Jump`, the back edge of every while loop.
    BumpJump,
    /// `PushString` whose only reader is the comparison right after it (or
    /// after one more push): the literal is read from the string pool.
    PooledString,
  };

  /// A run's limits: the BinaryApply ops (a Compound ending counts as one)
  /// and the operands it reads. A longer expression splits into runs that
  /// each read the previous run's pushed result from the top of the stack.
  static constexpr std::size_t kRunOps = 8;
  static constexpr std::size_t kRunInputs = 12;
  /// An operand a run reads before it evaluates anything: value k of its
  /// local int array.
  struct RunInput {
    enum Source : std::uint8_t { Local, Global, Const, Top } source = Const;
    std::uint32_t slot = 0;
    std::int64_t value = 0;  ///< the constant
  };
  /// `v[kRunInputs + m] = v[lhs] op v[rhs]` for the run's m-th op, which
  /// fails at `loc` once `upto` instructions of the run have been counted.
  struct RunOp {
    BinaryOp op;
    std::uint8_t lhs, rhs, upto;
    std::uint32_t loc;
  };
  /// A straight-line int expression from its head pc: an optional Check*
  /// of its store target, Load*/PushInt/BinaryApply, then an ending that
  /// pushes the result, branches on it (JumpIfFalse), stores it (Assign*) or
  /// compounds it into an Int slot (Compound*, its op the run's last).
  struct Run {
    enum class End : std::uint8_t { Push, Branch, Assign, Compound } end = End::Push;
    std::uint8_t length = 0;  ///< instructions covered, ending included
    std::uint8_t inputs = 0;
    std::uint8_t slots = 0;   ///< inputs [0, slots) are slots, in front of the rest
    std::uint8_t ops = 0;
    bool reads_top = false;   ///< one input is the Int on top of the stack
    bool bool_result = false; ///< the last op is a comparison
    std::uint32_t first_input = 0;  ///< into RunTable::inputs
    std::uint32_t first_op = 0;     ///< into RunTable::ops
  };
  /// The runs of every chunk decoded so far, in one table per Vm.
  struct RunTable {
    std::vector<Run> runs;
    std::vector<RunInput> inputs;
    std::vector<RunOp> ops;
  };
  /// The decoded form of one pc.
  struct Entry {
    Kind kind;
    std::uint32_t run;  ///< index into RunTable::runs where kind is Run
  };

  struct Frame {
    const Chunk* chunk = nullptr;
    const Entry* entries = nullptr;       ///< decoded_ of the chunk
    std::size_t pc = 0;                   ///< saved while a callee runs
    std::vector<ValuePtr> slots;          ///< null = unbound (reads as undeclared)
    std::vector<std::uint8_t> declared;   ///< Declare executed (may be unbound)
    std::vector<std::uint32_t> declared_at;  ///< location pool idx per slot
    std::vector<std::uint64_t> loops;     ///< while-iteration budgets
    struct Iter {
      std::vector<ValuePtr> items;
      std::size_t next = 0;
    };
    std::vector<Iter> iters;
    std::uint32_t call_loc = 0;  ///< location pool idx of the call site
  };

  /// One Kind per pc of `chunk`, its runs appended to `table`. Accepts any
  /// chunk that Bytecode::validate() passes.
  static std::vector<Entry> decode(const Chunk& chunk, RunTable& table);
  /// Append the run that starts at `head`, if one does, to `table`.
  static bool decode_run(const std::vector<Instr>& code, std::size_t head,
                         RunTable& table);

  void exec_loop();
  /// Enter chunk `index`: the next frame of frames_, reusing the vectors an
  /// earlier call left there, so a call allocates nothing once the frame
  /// stack has reached its depth. Decodes the chunk on its first entry.
  Frame& push_frame(std::uint32_t index, std::uint32_t call_loc);

  [[nodiscard]] SourceLocation loc_of(std::uint32_t idx) const {
    return bc_.locations[idx];
  }
  /// Throw LangError(`message`) at location pool index `loc_idx`.
  [[noreturn]] void fail(const char* message, std::uint32_t loc_idx) const;
  /// "<what> undeclared variable '<name>'" for the slot `in.b` of `owner`.
  [[noreturn]] void fail_undeclared(const char* what, const Frame& owner,
                                    const Instr& in) const;
  Operand pop(std::uint32_t loc_idx);
  Operand& peek(std::uint32_t loc_idx);
  /// Pop, giving an inline scalar a fresh cell: the form every Runtime call
  /// and binding takes. Nothing else holds an inline scalar, so its cell is
  /// as unaliased as a fresh Runtime result.
  ValuePtr pop_cell(std::uint32_t loc_idx);
  static TypeKind kind_of(const Operand& v) {
    return v.cell ? v.cell->kind() : v.kind;
  }
  /// The operand as a cell: its own, or a fresh one for an inline scalar or
  /// void.
  static ValuePtr box(Operand v);
  /// Value::as_int / as_bool / as_float of an operand, errors included.
  static std::int64_t int_of(const Operand& v);
  static bool bool_of(const Operand& v);
  static double float_of(const Operand& v);
  /// The int an Int operand holds, inline or in its cell; nullptr for any
  /// other kind.
  static const std::int64_t* if_int(const Operand& v) {
    return v.cell ? v.cell->if_int() : v.kind == TypeKind::Int ? &v.i : nullptr;
  }
  /// The same for a classical String.
  static const std::string* if_string(const Operand& v) {
    if (v.cell) return v.cell->kind() == TypeKind::String ? &v.cell->as_string() : nullptr;
    return v.kind == TypeKind::String ? v.s : nullptr;
  }
  const BuiltinFn& builtin_of(std::uint32_t name_idx, std::uint32_t loc_idx);

  /// TypeCastingHandler::condition_bool, inline for inline scalars.
  bool truthy(const Operand& v, std::uint32_t loc_idx);
  /// `slot = rhs`: a same-kind classical scalar is stored in place (Runtime's
  /// coerce is an identity there); anything else goes to
  /// Runtime::assign_plain.
  void assign(const ValuePtr& slot, Operand rhs, std::uint32_t loc_idx);
  /// `slot op= rhs`: int into an Int slot and int or float into a Float slot
  /// inline, anything else through Runtime::compound_assign.
  void compound(const std::string& name, const ValuePtr& slot, BinaryOp op,
                Operand rhs, std::uint32_t loc_idx);
  /// `a op b` bit-exact with the int branch of Runtime::classical_binary
  /// (wraparound arithmetic, identical error strings). Returns false for any
  /// op it does not cover; the caller falls back to Runtime.
  bool int_binary(BinaryOp op, std::int64_t a, std::int64_t b,
                  std::uint32_t loc_idx, Operand& out) const;
  /// Its result for an op it covers, a comparison's Bool as 0 or 1.
  std::int64_t int_value(BinaryOp op, std::int64_t a, std::int64_t b,
                         std::uint32_t loc_idx) const;
  /// The same for the float branch (an Int operand widens), for `lhs op rhs`
  /// when one is a Float and the other a Float or an Int. Returns false for
  /// any other operand kinds or an op floats do not define.
  bool float_binary(BinaryOp op, const Operand& lhs, const Operand& rhs,
                    std::uint32_t loc_idx, Operand& out) const;

  const Bytecode& bc_;
  Runtime runtime_;
  std::vector<Operand> stack_;  ///< inline scalars and cells (see Operand)
  /// frames_[0, depth_) are live, frames_[0] the top level; the rest keep
  /// their vectors' capacity for the next call.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  /// decode() of each chunk, filled when the chunk is first entered.
  std::vector<std::vector<Entry>> decoded_;
  RunTable runs_;
  std::vector<Runtime::SupBuilder> sups_;
  std::vector<Runtime::ArrBuilder> arrs_;
  /// Builtins resolved once per name (index = string pool slot).
  std::vector<const BuiltinFn*> builtin_cache_;
  /// The argument vector every builtin call fills and clears again (a
  /// builtin gets the Runtime, not the Vm, so no call nests in another).
  std::vector<ValuePtr> builtin_args_;
  /// Instructions executed, in runs or not (lang.vm_steps).
  std::uint64_t steps_ = 0;
};

}  // namespace qutes::lang
