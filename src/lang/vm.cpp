#include "qutes/lang/vm.hpp"

#include <array>
#include <string>
#include <type_traits>
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

std::vector<Vm::Kind> Vm::decode(const Chunk& chunk) {
  const std::vector<Instr>& code = chunk.code;
  const std::size_t n = code.size();
  const auto is = [&](std::size_t pc, Op op) {
    return pc < n && code[pc].op == op;
  };
  // How a run whose BinaryApply sits at `bin` ends: 0 with the BinaryApply,
  // 1 with a JumpIfFalse, 2 with an Assign.
  const auto ending = [&](std::size_t bin) -> std::uint8_t {
    if (is(bin + 1, Op::JumpIfFalse)) return 1;
    if (is(bin + 1, Op::AssignLocal) || is(bin + 1, Op::AssignGlobal)) return 2;
    return 0;
  };
  // The kinds of each run come in that order.
  const auto with_ending = [&](Kind first, std::size_t bin) {
    return static_cast<Kind>(static_cast<std::uint8_t>(first) + ending(bin));
  };

  // Value loads are found by following the operand stack through a window
  // of pushes, loads and BinaryApply: `window` holds, for each entry pushed
  // since the window opened, the pc of the load that pushed it, or n for
  // any other push. A BinaryApply marks the loads among the two entries it
  // pops. Any other instruction closes the window, because it may assign a
  // variable, jump, or pop a load's value for something else; so does a
  // window deeper than the array, which only leaves loads unmarked.
  std::array<std::size_t, 16> window{};
  std::size_t depth = 0;
  const auto push = [&](std::size_t entry) {
    if (depth == window.size()) depth = 0;
    window[depth++] = entry;
  };

  std::vector<Kind> kinds(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Instr& in = code[pc];
    Kind kind = static_cast<Kind>(in.op);
    switch (in.op) {
      case Op::LoadLocal:
      case Op::LoadGlobal:
        // A Load that heads a run is a value load too: the run's
        // BinaryApply pops it.
        if (is(pc + 2, Op::BinaryApply) &&
            (is(pc + 1, Op::PushInt) || is(pc + 1, Op::LoadLocal) ||
             is(pc + 1, Op::LoadGlobal))) {
          kind = with_ending(Kind::LoadBinary, pc + 2);
        }
        push(pc);
        break;
      case Op::PushInt:
        if (is(pc + 1, Op::BinaryApply)) {
          kind = with_ending(Kind::PushBinary, pc + 1);
        }
        push(n);
        break;
      case Op::PushFloat:
      case Op::PushBool:
        push(n);
        break;
      case Op::BinaryApply:
        if (const std::uint8_t end = ending(pc); end != 0) {
          kind = end == 1 ? Kind::BinaryBranch : Kind::BinaryAssign;
        }
        for (int popped = 0; popped < 2 && depth > 0; ++popped) {
          const std::size_t load = window[--depth];
          if (load != n && kinds[load] == static_cast<Kind>(code[load].op)) {
            kinds[load] = Kind::LoadValue;
          }
        }
        push(n);
        break;
      case Op::CheckLocal:
      case Op::CheckGlobal: {
        const Op update =
            in.op == Op::CheckGlobal ? Op::CompoundGlobal : Op::CompoundLocal;
        if (is(pc + 1, Op::PushInt) && is(pc + 2, update) &&
            code[pc + 2].b == in.b) {
          kind = Kind::CheckPushCompound;
        }
        depth = 0;
        break;
      }
      case Op::LoopBump:
        if (is(pc + 1, Op::Jump)) kind = Kind::BumpJump;
        depth = 0;
        break;
      default:
        depth = 0;
        break;
    }
    kinds[pc] = kind;
  }
  return kinds;
}

Vm::Frame& Vm::push_frame(std::uint32_t index, std::uint32_t call_loc) {
  const Chunk& chunk = bc_.chunks[index];
  std::vector<Kind>& kinds = decoded_[index];
  if (kinds.size() != chunk.code.size()) kinds = decode(chunk);
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& frame = frames_[depth_++];
  frame.chunk = &chunk;
  frame.kinds = kinds.data();
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

inline bool Vm::int_binary(BinaryOp op, std::int64_t a, std::int64_t b,
                           std::uint32_t loc_idx, Operand& out) const {
  // Mirrors the int branch of Runtime::classical_binary exactly — wraparound
  // two's-complement arithmetic through uint64_t and identical error strings
  // — so taking this path is observationally indistinguishable from the
  // Runtime call it skips.
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  const auto wrap = [](std::uint64_t u) {
    return Operand(static_cast<std::int64_t>(u));
  };
  switch (op) {
    case BinaryOp::Add: out = wrap(ua + ub); return true;
    case BinaryOp::Sub: out = wrap(ua - ub); return true;
    case BinaryOp::Mul: out = wrap(ua * ub); return true;
    case BinaryOp::Div:
      if (b == 0) fail("division by zero", loc_idx);
      out = b == -1 ? wrap(std::uint64_t{0} - ua) : Operand(a / b);
      return true;
    case BinaryOp::Mod:
      if (b == 0) fail("modulo by zero", loc_idx);
      out = Operand(b == -1 ? std::int64_t{0} : a % b);
      return true;
    case BinaryOp::Shl:
      if (b < 0 || b > 62) fail("bad shift amount", loc_idx);
      out = Operand(a << b);
      return true;
    case BinaryOp::Shr:
      if (b < 0 || b > 62) fail("bad shift amount", loc_idx);
      out = Operand(a >> b);
      return true;
    case BinaryOp::Eq: out = Operand(a == b); return true;
    case BinaryOp::Ne: out = Operand(a != b); return true;
    case BinaryOp::Lt: out = Operand(a < b); return true;
    case BinaryOp::Le: out = Operand(a <= b); return true;
    case BinaryOp::Gt: out = Operand(a > b); return true;
    case BinaryOp::Ge: out = Operand(a >= b); return true;
    case BinaryOp::And: out = Operand(a != 0 && b != 0); return true;
    case BinaryOp::Or: out = Operand(a != 0 || b != 0); return true;
    default:
      return false;  // `in`, unknown ops: let the Runtime diagnose
  }
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

/// How a run that ends in a BinaryApply continues (Vm::Kind): push the
/// result, branch on it (`JumpIfFalse`), or store it (`Assign*`).
enum class Ending { Push, Branch, Assign };
template <Ending E>
using EndingTag = std::integral_constant<Ending, E>;
constexpr EndingTag<Ending::Push> kPush{};
constexpr EndingTag<Ending::Branch> kBranch{};
constexpr EndingTag<Ending::Assign> kAssign{};

/// The dispatch code of `op` run alone, and of a fused Vm::Kind. The loop
/// switches on the code, because most codes name an Op, not a Kind.
constexpr std::uint8_t alone(Op op) { return static_cast<std::uint8_t>(op); }
template <typename Kind>
constexpr std::uint8_t fused(Kind kind) {
  return static_cast<std::uint8_t>(kind);
}

BinaryOp binary_op(const Instr& in) { return static_cast<BinaryOp>(in.a); }

}  // namespace

void Vm::exec_loop() {
  // The executing frame's state lives in locals; enter() reloads it after a
  // call or a return, and a call saves the caller's pc in its Frame first.
  Frame* fr = nullptr;
  const Instr* code = nullptr;
  const Kind* kinds = nullptr;
  std::size_t size = 0;
  std::size_t pc = 0;
  ValuePtr* locals = nullptr;
  ValuePtr* globals = nullptr;
  const auto enter = [&] {
    fr = &frames_[depth_ - 1];
    code = fr->chunk->code.data();
    kinds = fr->kinds;
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
  // Continue after the BinaryApply at `bin`, whose result is `out`, the
  // way the run's kind ends. Each ending covers one more instruction.
  const auto finish = [&](auto ending, Operand&& out, std::size_t bin) {
    if constexpr (decltype(ending)::value == Ending::Push) {
      stack_.push_back(std::move(out));
      pc = bin + 1;
    } else if constexpr (decltype(ending)::value == Ending::Branch) {
      ++steps;
      const Instr& jump = code[bin + 1];
      pc = truthy(out, jump.loc) ? bin + 2 : static_cast<std::size_t>(jump.a);
    } else {
      ++steps;
      store(code[bin + 1], std::move(out));
      pc = bin + 2;
    }
  };
  // BinaryApply `in` at pc - 1: inline for Ints and Floats, else through the
  // Runtime.
  const auto binary = [&](const Instr& in, auto ending) {
    if (stack_.size() < 2) fail("bytecode: stack underflow", in.loc);
    Operand& rhs = stack_.back();
    Operand& lhs = stack_[stack_.size() - 2];
    const BinaryOp op = binary_op(in);
    Operand out;
    const std::int64_t* a = if_int(lhs);
    const std::int64_t* b = a ? if_int(rhs) : nullptr;
    if (!(b && int_binary(op, *a, *b, in.loc, out)) &&
        !float_binary(op, lhs, rhs, in.loc, out)) {
      out = Operand(runtime_.evaluate_binary(op, box(std::move(lhs)),
                                             box(std::move(rhs)),
                                             loc_of(in.loc)));
    }
    stack_.pop_back();
    if constexpr (decltype(ending)::value == Ending::Push) {
      stack_.back() = std::move(out);  // in the lhs's place
    } else {
      stack_.pop_back();
      finish(ending, std::move(out), pc - 1);
    }
  };
  // `Load s; PushInt k | Load t; BinaryApply op` from the Load `in` at
  // pc - 1. Over Ints the result comes straight from the slots, with no copy
  // of either cell; otherwise the Load runs alone, as a value load.
  const auto load_binary = [&](const Instr& in, auto ending) {
    const ValuePtr& v = slot_of(in, Op::LoadGlobal);
    if (!v) fail_undeclared("use of", owner_of(in, Op::LoadGlobal), in);
    const std::int64_t* a = v->if_int();
    if (a == nullptr) {
      stack_.emplace_back(v);
      return;
    }
    const Instr& second = code[pc];
    const std::int64_t* b = &second.a;
    if (second.op != Op::PushInt) {
      const ValuePtr& w = slot_of(second, Op::LoadGlobal);
      b = w ? w->if_int() : nullptr;
    }
    if (b != nullptr) {
      const Instr& bin = code[pc + 1];
      steps += 2;
      Operand out;
      if (int_binary(binary_op(bin), *a, *b, bin.loc, out)) {
        finish(ending, std::move(out), pc + 1);
        return;
      }
      steps -= 2;
    }
    stack_.emplace_back(*a);
  };
  // `PushInt k; BinaryApply op` from the PushInt `in` at pc - 1, on an Int
  // top of stack; otherwise the PushInt runs alone.
  const auto push_binary = [&](const Instr& in, auto ending) {
    if (!stack_.empty()) {
      if (const std::int64_t* a = if_int(stack_.back())) {
        const Instr& bin = code[pc];
        ++steps;
        Operand out;
        if (int_binary(binary_op(bin), *a, in.a, bin.loc, out)) {
          if constexpr (decltype(ending)::value == Ending::Push) {
            stack_.back() = std::move(out);  // in the operand's place
            ++pc;
          } else {
            stack_.pop_back();
            finish(ending, std::move(out), pc);
          }
          return;
        }
        --steps;
      }
    }
    stack_.emplace_back(in.a);
  };

  try {
    for (;;) {
      if (pc >= size) {
        // Only the top-level chunk ends without an explicit Return.
        if (!do_return(Operand())) break;
        continue;
      }
      const Instr& in = code[pc];
      const std::uint8_t kind = static_cast<std::uint8_t>(kinds[pc]);
      ++pc;
      ++steps;
      switch (kind) {
        // ---- fused kinds (decode) --------------------------------------------
        case fused(Kind::LoadValue): {
          const ValuePtr& v = slot_of(in, Op::LoadGlobal);
          if (!v) fail_undeclared("use of", owner_of(in, Op::LoadGlobal), in);
          if (const std::int64_t* i = v->if_int()) {
            stack_.emplace_back(*i);
          } else {
            stack_.emplace_back(v);
          }
          break;
        }
        case fused(Kind::LoadBinary):
          load_binary(in, kPush);
          break;
        case fused(Kind::LoadBinaryBranch):
          load_binary(in, kBranch);
          break;
        case fused(Kind::LoadBinaryAssign):
          load_binary(in, kAssign);
          break;
        case fused(Kind::PushBinary):
          push_binary(in, kPush);
          break;
        case fused(Kind::PushBinaryBranch):
          push_binary(in, kBranch);
          break;
        case fused(Kind::PushBinaryAssign):
          push_binary(in, kAssign);
          break;
        case fused(Kind::BinaryBranch):
          binary(in, kBranch);
          break;
        case fused(Kind::BinaryAssign):
          binary(in, kAssign);
          break;
        case fused(Kind::CheckPushCompound): {
          const ValuePtr& slot = slot_of(in, Op::CheckGlobal);
          if (!slot) {
            fail_undeclared("assignment to", owner_of(in, Op::CheckGlobal), in);
          }
          if (const std::int64_t* a = slot->if_int()) {
            const Instr& update = code[pc + 1];
            Operand out;
            steps += 2;
            if (int_binary(binary_op(update), *a, code[pc].a, update.loc, out) &&
                out.kind == TypeKind::Int) {
              slot->set_int(out.i);
              pc += 2;
              break;
            }
            steps -= 2;
          }
          break;
        }
        case fused(Kind::BumpJump):
          if (++fr->loops[in.b] > kMaxWhileIterations) {
            fail("while loop exceeded the iteration budget", in.loc);
          }
          ++steps;
          pc = static_cast<std::size_t>(code[pc].a);
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
        case alone(Op::BinaryApply):
          binary(in, kPush);
          break;
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
