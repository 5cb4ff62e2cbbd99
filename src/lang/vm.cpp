#include "qutes/lang/vm.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "qutes/obs/obs.hpp"

namespace qutes::lang {

Vm::Vm(const Bytecode& bytecode, VmOptions options)
    : bc_(bytecode),
      runtime_(options.seed, options.echo),
      decoded_(bytecode.chunks.size()),
      builtin_cache_(bytecode.strings.size(), nullptr) {
  runtime_.set_bind_params(std::move(options.bind_params),
                           options.allow_unbound_params);
}

namespace {

BinaryOp binary_op(const Instr& in) { return static_cast<BinaryOp>(in.a); }

/// Ops whose int result is a Bool: a run ends with its first one.
bool yields_bool(BinaryOp op) { return op >= BinaryOp::Eq; }

bool is_load(Op op) { return op == Op::LoadLocal || op == Op::LoadGlobal; }

/// A string comparison, the ops Runtime::classical_binary compares strings by.
bool is_comparison(BinaryOp op) { return op >= BinaryOp::Eq && op <= BinaryOp::Ge; }

}  // namespace

bool Vm::decode_run(const std::vector<Instr>& code, std::size_t head,
                    RunTable& out) {
  // The run's operand stack, as value indices: an input k (< kRunInputs)
  // or the result of op m (kRunInputs + m).
  std::array<std::uint8_t, 8> stack{};
  std::size_t depth = 0;
  Run run;
  run.first_input = static_cast<std::uint32_t>(out.inputs.size());
  run.first_op = static_cast<std::uint32_t>(out.ops.size());
  const auto input = [&](RunInput in) {
    for (std::uint8_t k = 0; k < run.inputs; ++k) {
      const RunInput& seen = out.inputs[run.first_input + k];
      if (seen.source == in.source && seen.slot == in.slot && seen.value == in.value) {
        return k;
      }
    }
    out.inputs.push_back(in);
    return run.inputs++;
  };
  const auto slot_input = [&](const Instr& in, Op global_op) {
    return input({in.op == global_op ? RunInput::Global : RunInput::Local, in.b, 0});
  };
  // The longest prefix that leaves one result, for a run that ends in a push.
  Run pushed = run;
  std::size_t pc = head;
  if (code[pc].op == Op::CheckLocal || code[pc].op == Op::CheckGlobal) ++pc;
  for (; pc < code.size() && !run.bool_result; ++pc) {
    const Instr& in = code[pc];
    if (is_load(in.op) || in.op == Op::PushInt) {
      if (depth == stack.size() || run.inputs + std::size_t{2} >= kRunInputs) break;
      stack[depth++] = in.op == Op::PushInt ? input({RunInput::Const, 0, in.a})
                                            : slot_input(in, Op::LoadGlobal);
      continue;
    }
    const BinaryOp op = binary_op(in);
    if (in.op != Op::BinaryApply || op > BinaryOp::Or || run.ops == kRunOps ||
        depth == 0 || (depth == 1 && run.reads_top)) {
      break;
    }
    const std::uint8_t rhs = stack[--depth];
    std::uint8_t lhs = 0;
    if (depth > 0) {
      lhs = stack[--depth];
    } else {
      lhs = input({RunInput::Top, 0, 0});
      run.reads_top = true;
    }
    out.ops.push_back({op, lhs, rhs, static_cast<std::uint8_t>(pc - head + 1), in.loc});
    stack[depth++] = static_cast<std::uint8_t>(kRunInputs + run.ops++);
    run.bool_result = yields_bool(op);
    if (depth == 1) {
      pushed = run;
      pushed.length = static_cast<std::uint8_t>(pc + 1 - head);
    }
  }
  const Op last = pc < code.size() ? code[pc].op : Op::Pop;
  const auto ends = [&](Run::End end) {
    run.end = end;
    run.length = static_cast<std::uint8_t>(pc + 1 - head);
  };
  if (depth == 1 && run.ops > 0 && last == Op::JumpIfFalse) {
    ends(Run::End::Branch);
  } else if (depth == 1 && run.ops > 0 &&
             (last == Op::AssignLocal || last == Op::AssignGlobal)) {
    ends(Run::End::Assign);
  } else if (depth == 1 && !run.bool_result && run.ops < kRunOps &&
             (last == Op::CompoundLocal || last == Op::CompoundGlobal) &&
             binary_op(code[pc]) <= BinaryOp::Shr) {
    // `slot op= result`: the slot is read as one more input.
    const std::uint8_t target = slot_input(code[pc], Op::CompoundGlobal);
    out.ops.push_back({binary_op(code[pc]), target, stack[0],
                       static_cast<std::uint8_t>(pc + 1 - head), code[pc].loc});
    ++run.ops;
    ends(Run::End::Compound);
  } else {
    run = pushed;  // length 0 when no prefix leaves one result
  }
  out.inputs.resize(run.first_input + run.inputs);
  out.ops.resize(run.first_op + run.ops);
  if (run.length == 0) return false;
  // Slots first, then the top of the stack, then constants, so the run
  // reads each source in a loop of its own.
  RunInput* in = out.inputs.data() + run.first_input;
  std::array<RunInput, kRunInputs> sorted{};
  std::array<std::uint8_t, kRunInputs> to{};
  std::uint8_t next = 0;
  for (const RunInput::Source source : {RunInput::Local, RunInput::Top, RunInput::Const}) {
    for (std::uint8_t k = 0; k < run.inputs; ++k) {
      const RunInput::Source own = in[k].source == RunInput::Global ? RunInput::Local : in[k].source;
      if (own != source) continue;
      if (source == RunInput::Local) ++run.slots;
      sorted[next] = in[k];
      to[k] = next++;
    }
  }
  std::copy(sorted.begin(), sorted.begin() + run.inputs, in);
  for (std::uint8_t m = 0; m < run.ops; ++m) {
    RunOp& op = out.ops[run.first_op + m];
    if (op.lhs < kRunInputs) op.lhs = to[op.lhs];
    if (op.rhs < kRunInputs) op.rhs = to[op.rhs];
  }
  out.runs.push_back(run);
  return true;
}

std::vector<Vm::Entry> Vm::decode(const Chunk& chunk, RunTable& table) {
  const std::vector<Instr>& code = chunk.code;
  const std::size_t n = code.size();
  const auto is = [&](std::size_t pc, Op op) {
    return pc < n && code[pc].op == op;
  };
  const auto compares = [&](std::size_t pc) {
    return is(pc, Op::BinaryApply) && is_comparison(binary_op(code[pc]));
  };
  const auto pushes_one = [&](std::size_t pc) {
    return pc < n && (is_load(code[pc].op) || code[pc].op == Op::PushInt ||
                      code[pc].op == Op::PushFloat || code[pc].op == Op::PushBool ||
                      code[pc].op == Op::PushString);
  };
  std::vector<Entry> entries(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    Kind kind = static_cast<Kind>(code[pc].op);
    switch (code[pc].op) {
      case Op::LoadLocal:
      case Op::LoadGlobal:
      case Op::PushInt:
      case Op::CheckLocal:
      case Op::CheckGlobal:
        if (decode_run(code, pc, table)) kind = Kind::Run;
        break;
      case Op::LoopBump:
        if (is(pc + 1, Op::Jump)) kind = Kind::BumpJump;
        break;
      case Op::PushString:
        // The comparison pops the literal: it is its rhs, or its lhs with
        // one push in between, which no jump or exception can skip.
        if (compares(pc + 1) || (pushes_one(pc + 1) && compares(pc + 2))) {
          kind = Kind::PooledString;
        }
        break;
      default:
        break;
    }
    entries[pc] = {kind, static_cast<std::uint32_t>(table.runs.size() - 1)};
  }
  return entries;
}

Vm::Frame& Vm::push_frame(std::uint32_t index, std::uint32_t call_loc) {
  const Chunk& chunk = bc_.chunks[index];
  std::vector<Entry>& entries = decoded_[index];
  if (entries.size() != chunk.code.size()) entries = decode(chunk, runs_);
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& frame = frames_[depth_++];
  frame.chunk = &chunk;
  frame.entries = entries.data();
  frame.pc = 0;
  frame.slots.resize(chunk.num_slots);  // all null: a return clears them
  frame.declared.assign(chunk.num_slots, 0);
  frame.declared_at.assign(chunk.num_slots, 0);
  frame.loops.assign(chunk.num_loops, 0);
  frame.iters.resize(chunk.num_iters);
  frame.call_loc = call_loc;
  return frame;
}

void Vm::fail(const char* message, std::uint32_t loc_idx) const {
  throw LangError(message, loc_of(loc_idx));
}

void Vm::fail_undeclared(const char* what, const Frame& owner,
                         const Instr& in) const {
  throw LangError(std::string(what) + " undeclared variable '" +
                      bc_.strings[owner.chunk->slot_names[in.b]] + "'",
                  loc_of(in.loc));
}

Vm::Operand Vm::pop(std::uint32_t loc_idx) {
  if (stack_.empty()) fail("bytecode: stack underflow", loc_idx);
  Operand v = std::move(stack_.back());
  stack_.pop_back();
  return v;
}

Vm::Operand& Vm::peek(std::uint32_t loc_idx) {
  if (stack_.empty()) fail("bytecode: stack underflow", loc_idx);
  return stack_.back();
}

ValuePtr Vm::pop_cell(std::uint32_t loc_idx) { return box(pop(loc_idx)); }

ValuePtr Vm::box(Operand v) {
  if (v.cell) return std::move(v.cell);
  switch (v.kind) {
    case TypeKind::Void: return Value::make_void();
    case TypeKind::String: return Value::make_string(*v.s);
    case TypeKind::Bool: return Value::make_bool(v.b);
    case TypeKind::Float: return Value::make_float(v.f);
    default: return Value::make_int(v.i);
  }
}

std::int64_t Vm::int_of(const Operand& v) {
  if (v.cell) return v.cell->as_int();
  return v.kind == TypeKind::Int ? v.i : box(v)->as_int();
}

bool Vm::bool_of(const Operand& v) {
  if (v.cell) return v.cell->as_bool();
  return v.kind == TypeKind::Bool ? v.b : box(v)->as_bool();
}

double Vm::float_of(const Operand& v) {
  if (v.cell) return v.cell->as_float();
  if (v.kind == TypeKind::Float) return v.f;
  // as_float widens an Int; an inline one needs no cell for that.
  if (v.kind == TypeKind::Int) return static_cast<double>(v.i);
  return box(v)->as_float();
}

inline bool Vm::truthy(const Operand& v, std::uint32_t loc_idx) {
  if (v.cell) return runtime_.casting().condition_bool(*v.cell, loc_of(loc_idx));
  switch (v.kind) {
    case TypeKind::Void:  // a void call's result: the Runtime's diagnostic
    case TypeKind::String:
      return runtime_.casting().condition_bool(*box(v), loc_of(loc_idx));
    case TypeKind::Bool: return v.b;
    case TypeKind::Float: return v.f != 0.0;
    default: return v.i != 0;
  }
}

inline void Vm::assign(const ValuePtr& slot, Operand rhs, std::uint32_t loc_idx) {
  const TypeKind k = slot->kind();
  if (k == kind_of(rhs) &&
      (k == TypeKind::Int || k == TypeKind::Bool || k == TypeKind::Float)) {
    if (rhs.cell) {
      slot->assign(*rhs.cell);
    } else if (k == TypeKind::Int) {
      slot->set_int(rhs.i);
    } else if (k == TypeKind::Bool) {
      slot->set_bool(rhs.b);
    } else {
      slot->set_float(rhs.f);
    }
    return;
  }
  runtime_.assign_plain(slot, box(std::move(rhs)), loc_of(loc_idx));
}

void Vm::compound(const std::string& name, const ValuePtr& slot, BinaryOp op,
                  Operand rhs, std::uint32_t loc_idx) {
  // A result of the slot's own kind needs no coercion back into it; any
  // other shape, a Bool from a comparison op in a loaded artifact included,
  // goes to the Runtime.
  Operand out;
  const TypeKind k = slot->kind();
  if (k == TypeKind::Int && kind_of(rhs) == TypeKind::Int &&
      int_binary(op, slot->as_int(), int_of(rhs), loc_idx, out) &&
      out.kind == TypeKind::Int) {
    slot->set_int(out.i);
    return;
  }
  if (k == TypeKind::Float &&
      float_binary(op, Operand(slot->as_float()), rhs, loc_idx, out) &&
      out.kind == TypeKind::Float) {
    slot->set_float(out.f);
    return;
  }
  runtime_.compound_assign(name, slot, op, box(std::move(rhs)),
                           loc_of(loc_idx));
}

__attribute__((always_inline)) inline std::int64_t Vm::int_value(
    BinaryOp op, std::int64_t a, std::int64_t b, std::uint32_t loc_idx) const {
  // Mirrors the int branch of Runtime::classical_binary exactly — wraparound
  // two's-complement arithmetic through uint64_t and identical error strings
  // — so taking this path is observationally indistinguishable from the
  // Runtime call it skips.
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case BinaryOp::Add: return static_cast<std::int64_t>(ua + ub);
    case BinaryOp::Sub: return static_cast<std::int64_t>(ua - ub);
    case BinaryOp::Mul: return static_cast<std::int64_t>(ua * ub);
    case BinaryOp::Div:
      if (b == 0) fail("division by zero", loc_idx);
      return b == -1 ? static_cast<std::int64_t>(std::uint64_t{0} - ua) : a / b;
    case BinaryOp::Mod:
      if (b == 0) fail("modulo by zero", loc_idx);
      return b == -1 ? 0 : a % b;
    case BinaryOp::Shl:
      if (b < 0 || b > 62) fail("bad shift amount", loc_idx);
      return a << b;
    case BinaryOp::Shr:
      if (b < 0 || b > 62) fail("bad shift amount", loc_idx);
      return a >> b;
    case BinaryOp::Eq: return a == b;
    case BinaryOp::Ne: return a != b;
    case BinaryOp::Lt: return a < b;
    case BinaryOp::Le: return a <= b;
    case BinaryOp::Gt: return a > b;
    case BinaryOp::Ge: return a >= b;
    case BinaryOp::And: return a != 0 && b != 0;
    default: return a != 0 || b != 0;  // Or
  }
}

inline bool Vm::int_binary(BinaryOp op, std::int64_t a, std::int64_t b,
                           std::uint32_t loc_idx, Operand& out) const {
  if (op > BinaryOp::Or) return false;  // `in`, unknown ops: let the Runtime diagnose
  const std::int64_t r = int_value(op, a, b, loc_idx);
  out = yields_bool(op) ? Operand(r != 0) : Operand(r);
  return true;
}

inline bool Vm::float_binary(BinaryOp op, const Operand& lhs,
                             const Operand& rhs, std::uint32_t loc_idx,
                             Operand& out) const {
  // Mirrors the float branch of Runtime::classical_binary: it runs when
  // either operand is a Float, and widens an Int through as_float. A Bool
  // operand (as_float's internal error), a string or a quantum operand, and
  // the ops floats do not define stay with the Runtime and its messages.
  const TypeKind lk = kind_of(lhs);
  const TypeKind rk = kind_of(rhs);
  if ((lk != TypeKind::Float && rk != TypeKind::Float) ||
      (lk != TypeKind::Float && lk != TypeKind::Int) ||
      (rk != TypeKind::Float && rk != TypeKind::Int)) {
    return false;
  }
  const double a = float_of(lhs);
  const double b = float_of(rhs);
  switch (op) {
    case BinaryOp::Add: out = Operand(a + b); return true;
    case BinaryOp::Sub: out = Operand(a - b); return true;
    case BinaryOp::Mul: out = Operand(a * b); return true;
    case BinaryOp::Div:
      if (b == 0.0) fail("division by zero", loc_idx);
      out = Operand(a / b);
      return true;
    case BinaryOp::Eq: out = Operand(a == b); return true;
    case BinaryOp::Ne: out = Operand(a != b); return true;
    case BinaryOp::Lt: out = Operand(a < b); return true;
    case BinaryOp::Le: out = Operand(a <= b); return true;
    case BinaryOp::Gt: out = Operand(a > b); return true;
    case BinaryOp::Ge: out = Operand(a >= b); return true;
    default:
      return false;
  }
}

const BuiltinFn& Vm::builtin_of(std::uint32_t name_idx, std::uint32_t loc_idx) {
  const BuiltinFn*& cached = builtin_cache_[name_idx];
  if (cached == nullptr) {
    const auto& table = builtin_table();
    const auto it = table.find(bc_.strings[name_idx]);
    if (it == table.end()) {
      throw LangError("bytecode: unknown builtin '" + bc_.strings[name_idx] + "'",
                      loc_of(loc_idx));
    }
    cached = &it->second;
  }
  return *cached;
}

void Vm::run() {
  obs::Span span("lang.vm");
  struct StepsRecorder {
    const std::uint64_t& steps;
    ~StepsRecorder() {
      obs::metrics().counter(obs::names::kLangVmSteps).add(steps);
    }
  } recorder{steps_};
  push_frame(0, 0);
  exec_loop();
}

namespace {

/// The dispatch code of `op` run alone, and of a decoded Vm::Kind. The loop
/// switches on the code, because most codes name an Op, not a Kind.
constexpr std::uint8_t alone(Op op) { return static_cast<std::uint8_t>(op); }
template <typename Kind>
constexpr std::uint8_t decoded_kind(Kind kind) {
  return static_cast<std::uint8_t>(kind);
}

/// `a op b` of two strings, for the comparisons Runtime::classical_binary
/// defines on them.
bool compare_strings(BinaryOp op, const std::string& a, const std::string& b) {
  switch (op) {
    case BinaryOp::Eq: return a == b;
    case BinaryOp::Ne: return a != b;
    case BinaryOp::Lt: return a < b;
    case BinaryOp::Le: return a <= b;
    case BinaryOp::Gt: return a > b;
    default: return a >= b;
  }
}

}  // namespace

void Vm::exec_loop() {
  // The executing frame's state lives in locals; enter() reloads it after a
  // call or a return, and a call saves the caller's pc in its Frame first.
  Frame* fr = nullptr;
  const Instr* code = nullptr;
  const Entry* entries = nullptr;
  std::size_t size = 0;
  std::size_t pc = 0;
  ValuePtr* locals = nullptr;
  ValuePtr* globals = nullptr;
  const auto enter = [&] {
    fr = &frames_[depth_ - 1];
    code = fr->chunk->code.data();
    entries = fr->entries;
    size = fr->chunk->code.size();
    pc = fr->pc;
    locals = fr->slots.data();
    globals = frames_.front().slots.data();
  };
  enter();
  std::uint64_t steps = 0;

  // Pop the current frame and hand `value` back through the callee's
  // return-type coercion (tree-walk: call_user_function's epilogue).
  // Returns false when the popped frame was the top level.
  const auto do_return = [&](Operand value) -> bool {
    Frame& done = frames_[--depth_];
    done.slots.clear();  // release the locals; the vectors stay for reuse
    for (Frame::Iter& iter : done.iters) iter.items.clear();
    if (depth_ == 0) return false;  // top level finished
    const Chunk& ck = *done.chunk;
    const QType& rtype = bc_.types[ck.return_type];
    if (rtype.kind == TypeKind::Void) {
      stack_.emplace_back();  // inline void, boxed only where a cell is needed
    } else if (rtype.is_classical_scalar() && kind_of(value) == rtype.kind) {
      // coerce returns a classical scalar of the target kind unchanged, so
      // an inline one stays inline.
      stack_.push_back(std::move(value));
    } else {
      stack_.emplace_back(runtime_.casting().coerce(
          box(std::move(value)), rtype, bc_.strings[ck.name] + "() result",
          loc_of(done.call_loc)));
    }
    enter();
    return true;
  };

  const auto slot_of = [&](const Instr& in, Op global_op) -> const ValuePtr& {
    return (in.op == global_op ? globals : locals)[in.b];
  };
  const auto owner_of = [&](const Instr& in, Op global_op) -> const Frame& {
    return in.op == global_op ? frames_.front() : *fr;
  };
  // `Assign* s` of `rhs`, the instruction `as`.
  const auto store = [&](const Instr& as, Operand rhs) {
    const ValuePtr& slot = slot_of(as, Op::AssignGlobal);
    if (!slot) fail_undeclared("assignment to", owner_of(as, Op::AssignGlobal), as);
    assign(slot, std::move(rhs), as.loc);
  };
  // The run at pc - 1, whose head is `head`: false, with nothing done, when
  // a slot it reads is unbound or not an Int, or the top of the stack it
  // reads is not an Int.
  const auto run_ints = [&](const Run& run,
                            const Instr& head) __attribute__((always_inline)) {
    if ((head.op == Op::CheckLocal || head.op == Op::CheckGlobal) &&
        !slot_of(head, Op::CheckGlobal)) {
      return false;
    }
    std::int64_t v[kRunInputs + kRunOps];
    const RunInput* in = runs_.inputs.data() + run.first_input;
    std::size_t k = 0;
    for (; k < run.slots; ++k) {
      const ValuePtr& cell =
          (in[k].source == RunInput::Global ? globals : locals)[in[k].slot];
      const std::int64_t* p = cell ? cell->if_int() : nullptr;
      if (p == nullptr) return false;
      v[k] = *p;
    }
    if (run.reads_top) {
      const std::int64_t* p = stack_.empty() ? nullptr : if_int(stack_.back());
      if (p == nullptr) return false;
      v[k++] = *p;
    }
    for (; k < run.inputs; ++k) v[k] = in[k].value;
    // Each op counts the instructions up to its BinaryApply before it can
    // trap. Only the last op can be a comparison, whose 0 or 1 is a Bool.
    const std::uint64_t base = steps - 1;
    const RunOp* op = runs_.ops.data() + run.first_op;
    std::int64_t r = 0;
    for (std::size_t m = 0; m < run.ops; ++m) {
      steps = base + op[m].upto;
      r = v[kRunInputs + m] = int_value(op[m].op, v[op[m].lhs], v[op[m].rhs], op[m].loc);
    }
    steps = base + run.length;
    pc += run.length - 1;
    const Instr& last = code[pc - 1];
    const auto result = [&] { return run.bool_result ? Operand(r != 0) : Operand(r); };
    if (run.end == Run::End::Push) {
      if (run.reads_top) {
        stack_.back() = result();
      } else {
        stack_.push_back(result());
      }
      return true;
    }
    if (run.reads_top) stack_.pop_back();
    if (run.end == Run::End::Branch) {
      if (r == 0) pc = static_cast<std::size_t>(last.a);
    } else if (run.end == Run::End::Compound) {
      // The slot is an input, so it holds an Int.
      slot_of(last, Op::CompoundGlobal)->set_int(r);
    } else if (const ValuePtr& slot = slot_of(last, Op::AssignGlobal);
               slot && slot->kind() == TypeKind::Int && !run.bool_result) {
      slot->set_int(r);  // what assign() does for an Int into an Int
    } else {
      store(last, result());
    }
    return true;
  };

  try {
    for (;;) {
      if (pc >= size) {
        // Only the top-level chunk ends without an explicit Return.
        if (!do_return(Operand())) break;
        continue;
      }
      const Instr& in = code[pc];
      const Entry& entry = entries[pc];
      std::uint8_t kind = static_cast<std::uint8_t>(entry.kind);
      ++pc;
      ++steps;
      if (kind == decoded_kind(Kind::Run)) {
        if (run_ints(runs_.runs[entry.run], in)) continue;
        kind = alone(in.op);  // the head runs alone
      }
      switch (kind) {
        // ---- decoded kinds (decode) ------------------------------------------
        case decoded_kind(Kind::BumpJump):
          if (++fr->loops[in.b] > kMaxWhileIterations) {
            fail("while loop exceeded the iteration budget", in.loc);
          }
          ++steps;
          pc = static_cast<std::size_t>(code[pc].a);
          break;
        case decoded_kind(Kind::PooledString):
          stack_.emplace_back(&bc_.strings[in.b]);
          break;

        // ---- one instruction -------------------------------------------------
        case alone(Op::PushInt):
          stack_.emplace_back(in.a);
          break;
        case alone(Op::PushFloat):
          stack_.emplace_back(bc_.floats[in.b]);
          break;
        case alone(Op::PushBool):
          stack_.emplace_back(in.a != 0);
          break;
        case alone(Op::PushString):
          stack_.emplace_back(Value::make_string(bc_.strings[in.b]));
          break;
        case alone(Op::Pop):
          (void)pop(in.loc);
          break;

        case alone(Op::QuintLit):
          stack_.emplace_back(runtime_.quantum_int_lit(in.a, loc_of(in.loc)));
          break;
        case alone(Op::QustringLit):
          stack_.emplace_back(
              runtime_.quantum_string_lit(bc_.strings[in.b], loc_of(in.loc)));
          break;
        case alone(Op::KetState):
          stack_.emplace_back(runtime_.ket_lit(static_cast<KetKind>(in.a)));
          break;

        case alone(Op::SupBegin):
          sups_.emplace_back();
          break;
        case alone(Op::SupElem): {
          if (sups_.empty()) fail("bytecode: stray literal-builder op", in.loc);
          runtime_.sup_element(sups_.back(), pop_cell(in.loc), loc_of(in.loc));
          break;
        }
        case alone(Op::SupEnd): {
          if (sups_.empty()) fail("bytecode: stray literal-builder op", in.loc);
          stack_.emplace_back(runtime_.sup_finish(sups_.back(), loc_of(in.loc)));
          sups_.pop_back();
          break;
        }
        case alone(Op::ArrBegin):
          arrs_.emplace_back();
          break;
        case alone(Op::ArrElem): {
          if (arrs_.empty()) fail("bytecode: stray literal-builder op", in.loc);
          Runtime::arr_element(arrs_.back(), pop_cell(in.loc), loc_of(in.loc));
          break;
        }
        case alone(Op::ArrEnd): {
          if (arrs_.empty()) fail("bytecode: stray literal-builder op", in.loc);
          Runtime::ArrBuilder builder = std::move(arrs_.back());
          arrs_.pop_back();
          stack_.emplace_back(
              Value::make_array(builder.element, std::move(builder.items)));
          break;
        }

        case alone(Op::LoadLocal):
        case alone(Op::LoadGlobal): {
          const ValuePtr& v = slot_of(in, Op::LoadGlobal);
          if (!v) fail_undeclared("use of", owner_of(in, Op::LoadGlobal), in);
          stack_.emplace_back(v);
          break;
        }
        case alone(Op::CheckLocal):
        case alone(Op::CheckGlobal):
          if (!slot_of(in, Op::CheckGlobal)) {
            fail_undeclared("assignment to", owner_of(in, Op::CheckGlobal), in);
          }
          break;
        case alone(Op::AssignLocal):
        case alone(Op::AssignGlobal):
          store(in, pop(in.loc));
          break;
        case alone(Op::CompoundLocal):
        case alone(Op::CompoundGlobal): {
          Operand rhs = pop(in.loc);
          const Frame& owner = owner_of(in, Op::CompoundGlobal);
          const ValuePtr& slot = slot_of(in, Op::CompoundGlobal);
          if (!slot) fail_undeclared("assignment to", owner, in);
          compound(bc_.strings[owner.chunk->slot_names[in.b]], slot,
                   binary_op(in), std::move(rhs), in.loc);
          break;
        }

        case alone(Op::CheckIndexTarget): {
          const Operand& target = peek(in.loc);
          if (!target.cell || !target.cell->is_array()) {
            fail("only array elements can be assigned by index", in.loc);
          }
          break;
        }
        case alone(Op::IndexPrep): {
          Operand index_v = pop(in.loc);
          const std::int64_t index =
              index_v.cell ? runtime_.classical_of(index_v.cell)->as_int()
                           : int_of(index_v);
          const std::size_t size_of_target =
              box(peek(in.loc))->as_array().items.size();
          if (index < 0 || static_cast<std::size_t>(index) >= size_of_target) {
            fail("array index out of range", in.loc);
          }
          stack_.emplace_back(index);
          break;
        }
        case alone(Op::AssignIndex):
        case alone(Op::CompoundIndex): {
          Operand rhs = pop(in.loc);
          const std::int64_t index = int_of(pop(in.loc));
          const ValuePtr target = pop_cell(in.loc);
          // Re-check: the rhs ran with the array reachable and may have
          // resized it (the tree-walk holds a raw element reference across
          // that window — undefined; the VM stays defined and re-indexes).
          auto& arr = target->as_array();
          if (index < 0 || static_cast<std::size_t>(index) >= arr.items.size()) {
            fail("array index out of range", in.loc);
          }
          const ValuePtr& item = arr.items[static_cast<std::size_t>(index)];
          if (in.op == Op::CompoundIndex) {
            compound("<element>", item, binary_op(in), std::move(rhs), in.loc);
          } else {
            assign(item, std::move(rhs), in.loc);
          }
          break;
        }
        case alone(Op::IndexGet): {
          // An inline index (a computed `xs[j % 4]`) is read as an int, not
          // boxed into a fresh cell for the ValuePtr overload.
          Operand index_v = pop(in.loc);
          const ValuePtr target = pop_cell(in.loc);
          stack_.emplace_back(
              index_v.cell
                  ? runtime_.index_value(target, index_v.cell, loc_of(in.loc))
                  : runtime_.index_value(target, int_of(index_v), loc_of(in.loc)));
          break;
        }

        case alone(Op::Declare):
        case alone(Op::BindInit):
        case alone(Op::DeclareDefault):
        case alone(Op::DeclarePromoteInt):
        case alone(Op::DeclarePromoteString): {
          const std::string& name = bc_.strings[fr->chunk->slot_names[in.b]];
          if (in.op != Op::BindInit) {
            // Scope::declare's redeclaration rule, slot-indexed.
            if (fr->declared[in.b]) {
              throw LangError("redeclaration of '" + name +
                                  "' (first declared at " +
                                  loc_of(fr->declared_at[in.b]).to_string() + ")",
                              loc_of(in.loc));
            }
            fr->declared[in.b] = 1;
            fr->declared_at[in.b] = in.loc;
            locals[in.b] = nullptr;
          }
          const QType& type = bc_.types[in.c];
          switch (in.op) {
            case Op::Declare:
              break;  // value bound by the BindInit after the initializer
            case Op::BindInit: {
              const ValuePtr init = pop_cell(in.loc);
              locals[in.b] =
                  runtime_.bind_decl_init(init, type, name, loc_of(in.loc));
              break;
            }
            case Op::DeclareDefault:
              locals[in.b] = runtime_.default_init(type, name, loc_of(in.loc));
              break;
            case Op::DeclarePromoteInt: {
              const Value classical(QType::scalar(TypeKind::Int), in.a);
              locals[in.b] = runtime_.casting().promote(
                  classical, name, type.quint_width, loc_of(in.loc));
              break;
            }
            case Op::DeclarePromoteString: {
              const Value classical(
                  QType::scalar(TypeKind::String),
                  bc_.strings[static_cast<std::uint32_t>(in.a)]);
              locals[in.b] =
                  runtime_.casting().promote(classical, name, 0, loc_of(in.loc));
              break;
            }
            default:
              break;
          }
          break;
        }
        case alone(Op::ScopeExit):
          for (const std::uint32_t slot : fr->chunk->scopes[in.b]) {
            locals[slot] = nullptr;
            fr->declared[slot] = 0;
            fr->declared_at[slot] = 0;
          }
          break;

        case alone(Op::UnaryApply): {
          Operand v = pop(in.loc);
          const auto op = static_cast<UnaryOp>(in.a);
          const TypeKind k = kind_of(v);
          if (op == UnaryOp::Not) {
            stack_.emplace_back(!truthy(v, in.loc));
          } else if (op == UnaryOp::Neg && k == TypeKind::Int) {
            // Through uint64_t: -INT64_MIN wraps to itself (Runtime::unary).
            stack_.emplace_back(static_cast<std::int64_t>(
                std::uint64_t{0} - static_cast<std::uint64_t>(int_of(v))));
          } else if (op == UnaryOp::Neg && k == TypeKind::Float && !v.cell) {
            stack_.emplace_back(-v.f);
          } else {
            stack_.emplace_back(
                runtime_.unary(op, box(std::move(v)), loc_of(in.loc)));
          }
          break;
        }
        case alone(Op::BinaryApply): {
          // Inline for Ints, Floats and two strings compared, else through
          // the Runtime.
          if (stack_.size() < 2) fail("bytecode: stack underflow", in.loc);
          Operand& rhs = stack_.back();
          Operand& lhs = stack_[stack_.size() - 2];
          const BinaryOp op = binary_op(in);
          Operand out;
          const std::int64_t* a = if_int(lhs);
          const std::int64_t* b = a ? if_int(rhs) : nullptr;
          if (!(b && int_binary(op, *a, *b, in.loc, out)) &&
              !float_binary(op, lhs, rhs, in.loc, out)) {
            const std::string* sa = if_string(lhs);
            const std::string* sb = if_string(rhs);
            if (sa && sb && is_comparison(op)) {
              out = Operand(compare_strings(op, *sa, *sb));
            } else {
              out = Operand(runtime_.evaluate_binary(op, box(std::move(lhs)),
                                                     box(std::move(rhs)),
                                                     loc_of(in.loc)));
            }
          }
          stack_.pop_back();
          stack_.back() = std::move(out);  // in the lhs's place
          break;
        }
        case alone(Op::ToBool):
          stack_.emplace_back(truthy(pop(in.loc), in.loc));
          break;

        case alone(Op::Jump):
          pc = static_cast<std::size_t>(in.a);
          break;
        case alone(Op::JumpIfFalse):
          if (!truthy(pop(in.loc), in.loc)) pc = static_cast<std::size_t>(in.a);
          break;
        case alone(Op::JumpIfFalsePeek):
          if (!bool_of(peek(in.loc))) pc = static_cast<std::size_t>(in.a);
          break;
        case alone(Op::JumpIfTruePeek):
          if (bool_of(peek(in.loc))) pc = static_cast<std::size_t>(in.a);
          break;
        case alone(Op::LoopReset):
          fr->loops[in.b] = 0;
          break;
        case alone(Op::LoopBump):
          if (++fr->loops[in.b] > kMaxWhileIterations) {
            fail("while loop exceeded the iteration budget", in.loc);
          }
          break;
        case alone(Op::ForeachInit): {
          // A snapshot of the iterable, refilled in place: a loop entered
          // again reuses the vector.
          const ValuePtr iterable = pop_cell(in.loc);
          Frame::Iter& iter = fr->iters[in.b];
          runtime_.iterate_items(iterable, loc_of(in.loc), iter.items);
          iter.next = 0;
          break;
        }
        case alone(Op::ForeachNext): {
          Frame::Iter& iter = fr->iters[in.b];
          if (iter.next >= iter.items.size()) {
            iter.items.clear();  // release the items, keep the capacity
            iter.next = 0;
            pc = static_cast<std::size_t>(in.a);
          } else {
            locals[in.c] = iter.items[iter.next++];
            fr->declared[in.c] = 1;
            fr->declared_at[in.c] = in.loc;
          }
          break;
        }

        case alone(Op::CallBuiltin): {
          const auto argc = static_cast<std::size_t>(in.a);
          builtin_args_.resize(argc);
          for (std::size_t i = argc; i-- > 0;) builtin_args_[i] = pop_cell(in.loc);
          const BuiltinFn& fn = builtin_of(in.b, in.loc);
          ValuePtr result = fn(runtime_, builtin_args_, loc_of(in.loc));
          builtin_args_.clear();
          if (!result) result = Value::make_void();
          stack_.emplace_back(std::move(result));
          break;
        }
        case alone(Op::CallUser): {
          const Chunk& callee = bc_.chunks[in.b];
          const std::string& fname = bc_.strings[callee.name];
          const auto argc = static_cast<std::size_t>(in.a);
          if (argc != callee.params.size()) {
            throw LangError("function '" + fname + "' expects " +
                                std::to_string(callee.params.size()) +
                                " arguments, got " + std::to_string(argc),
                            loc_of(in.loc));
          }
          if (depth_ > kMaxCallDepth) {
            throw LangError(
                "call depth exceeded (" + std::to_string(kMaxCallDepth) + ")",
                loc_of(in.loc));
          }
          if (stack_.size() < argc) fail("bytecode: stack underflow", in.loc);
          // The arguments are coerced where they lie on the operand stack.
          const std::size_t base = stack_.size() - argc;
          fr->pc = pc;
          Frame& frame = push_frame(in.b, in.loc);
          for (std::size_t i = 0; i < argc; ++i) {
            // The reference binds parameters in order and trips the
            // redeclaration error when it reaches a duplicate name — after
            // coercing (possibly measuring) the earlier arguments.
            if (callee.duplicate_param && *callee.duplicate_param == i) {
              throw LangError(
                  "redeclaration of '" + bc_.strings[callee.params[i].name] +
                      "' (first declared at " + loc_of(in.loc).to_string() + ")",
                  loc_of(in.loc));
            }
            frame.slots[i] = runtime_.casting().coerce(
                box(std::move(stack_[base + i])),
                bc_.types[callee.params[i].type],
                bc_.strings[callee.params[i].name], loc_of(in.loc));
            frame.declared[i] = 1;
            frame.declared_at[i] = in.loc;
          }
          stack_.resize(base);
          enter();
          break;
        }
        case alone(Op::Return):
          if (!do_return(in.a != 0 ? pop(in.loc) : Operand())) {
            steps_ += steps;
            return;
          }
          break;

        case alone(Op::Print):
          runtime_.emit_output(runtime_.render_for_print(pop_cell(in.loc)) +
                               "\n");
          break;
        case alone(Op::Barrier):
          runtime_.handler().barrier();
          break;
        case alone(Op::GateApply): {
          const ValuePtr v = pop_cell(in.loc);
          runtime_.apply_gate_value(static_cast<GateKind>(in.a), v,
                                    loc_of(in.loc));
          break;
        }

        case alone(Op::ThrowUseUndeclared):
          throw LangError(
              "use of undeclared variable '" + bc_.strings[in.b] + "'",
              loc_of(in.loc));
        case alone(Op::ThrowAssignUndeclared):
          throw LangError(
              "assignment to undeclared variable '" + bc_.strings[in.b] + "'",
              loc_of(in.loc));
        case alone(Op::ThrowUnknownFunction):
          throw LangError(
              "call to unknown function '" + bc_.strings[in.b] + "'",
              loc_of(in.loc));
      }
    }
  } catch (...) {
    steps_ += steps;
    throw;
  }
  steps_ += steps;
}

}  // namespace qutes::lang
