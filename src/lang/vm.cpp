#include "qutes/lang/vm.hpp"

#include "qutes/obs/obs.hpp"

namespace qutes::lang {

Vm::Vm(const Bytecode& bytecode, VmOptions options)
    : bc_(bytecode),
      runtime_(options.seed, options.echo),
      builtin_cache_(bytecode.strings.size(), nullptr) {
  runtime_.set_bind_params(std::move(options.bind_params),
                           options.allow_unbound_params);
}

Vm::Frame& Vm::push_frame(const Chunk& chunk, std::uint32_t call_loc) {
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& frame = frames_[depth_++];
  frame.chunk = &chunk;
  frame.pc = 0;
  frame.slots.resize(chunk.num_slots);  // all null: a return clears them
  frame.declared.assign(chunk.num_slots, 0);
  frame.declared_at.assign(chunk.num_slots, 0);
  frame.loops.assign(chunk.num_loops, 0);
  frame.iters.resize(chunk.num_iters);
  frame.call_loc = call_loc;
  return frame;
}

Vm::Operand Vm::pop(std::uint32_t loc_idx) {
  if (stack_.empty()) {
    throw LangError("bytecode: stack underflow", loc_of(loc_idx));
  }
  Operand v = std::move(stack_.back());
  stack_.pop_back();
  return v;
}

Vm::Operand& Vm::peek(std::uint32_t loc_idx) {
  if (stack_.empty()) {
    throw LangError("bytecode: stack underflow", loc_of(loc_idx));
  }
  return stack_.back();
}

ValuePtr Vm::pop_cell(std::uint32_t loc_idx) { return box(pop(loc_idx)); }

TypeKind Vm::kind_of(const Operand& v) {
  return v.cell ? v.cell->kind() : v.kind;
}

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
  return v.kind == TypeKind::Float ? v.f : box(v)->as_float();
}

bool Vm::truthy(const Operand& v, std::uint32_t loc_idx) {
  if (v.cell) return runtime_.casting().condition_bool(*v.cell, loc_of(loc_idx));
  switch (v.kind) {
    case TypeKind::Void:  // a void call's result: the Runtime's diagnostic
      return runtime_.casting().condition_bool(*box(v), loc_of(loc_idx));
    case TypeKind::Bool: return v.b;
    case TypeKind::Float: return v.f != 0.0;
    default: return v.i != 0;
  }
}

void Vm::assign(const ValuePtr& slot, Operand rhs, std::uint32_t loc_idx) {
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

bool Vm::int_binary(BinaryOp op, std::int64_t a, std::int64_t b,
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
      if (b == 0) throw LangError("division by zero", loc_of(loc_idx));
      out = b == -1 ? wrap(std::uint64_t{0} - ua) : Operand(a / b);
      return true;
    case BinaryOp::Mod:
      if (b == 0) throw LangError("modulo by zero", loc_of(loc_idx));
      out = Operand(b == -1 ? std::int64_t{0} : a % b);
      return true;
    case BinaryOp::Shl:
      if (b < 0 || b > 62) throw LangError("bad shift amount", loc_of(loc_idx));
      out = Operand(a << b);
      return true;
    case BinaryOp::Shr:
      if (b < 0 || b > 62) throw LangError("bad shift amount", loc_of(loc_idx));
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

bool Vm::float_binary(BinaryOp op, const Operand& lhs, const Operand& rhs,
                      std::uint32_t loc_idx, Operand& out) const {
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
      if (b == 0.0) throw LangError("division by zero", loc_of(loc_idx));
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
  std::uint64_t steps = 0;
  struct StepsRecorder {
    std::uint64_t& steps;
    ~StepsRecorder() {
      obs::metrics().counter(obs::names::kLangVmSteps).add(steps);
    }
  } recorder{steps};
  push_frame(bc_.chunks.front(), 0);
  exec_loop(steps);
}

void Vm::exec_loop(std::uint64_t& steps) {
  Frame* fr = &frames_[depth_ - 1];
  const std::vector<Instr>* code = &fr->chunk->code;
  const auto refresh = [&] {
    fr = &frames_[depth_ - 1];
    code = &fr->chunk->code;
  };

  // Pop the current frame and hand `value` back through the callee's
  // return-type coercion (tree-walk: call_user_function's epilogue).
  // Returns false when the popped frame was the top level.
  const auto do_return = [&](Operand value) -> bool {
    Frame& done = frames_[--depth_];
    done.slots.clear();  // release the locals; the vectors stay for reuse
    done.iters.clear();
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
    refresh();
    return true;
  };

  // Fused int sequences. The lowerer emits a few short instruction runs in
  // every loop, condition and counter; when all their operands are Ints the
  // dispatch loop runs such a run in one dispatch, recognised from the
  // executing pc (the bytecode is unchanged and no jump target moves). Only
  // a run's last instruction can fail (LoopBump fails before its Jump), so
  // a diagnostic keeps its location, and `steps` still counts every
  // instruction. With any other operand the run falls back to one
  // instruction at a time.

  // The int that the second operand instruction of `Load s; X; BinaryApply`
  // supplies: a PushInt immediate or the value of a bound Int slot.
  const auto int_operand = [&](const Instr& src) -> const std::int64_t* {
    if (src.op == Op::PushInt) return &src.a;
    if (src.op != Op::LoadLocal && src.op != Op::LoadGlobal) return nullptr;
    const ValuePtr& v =
        (src.op == Op::LoadGlobal ? frames_.front() : *fr).slots[src.b];
    return v ? v->if_int() : nullptr;
  };
  // Apply the BinaryApply at `at` to ints a and b, counting the `extra`
  // instructions the run covers beyond the one dispatched. False, with
  // nothing done, when int_binary does not cover its op.
  const auto fused_int = [&](std::size_t at, std::int64_t a, std::int64_t b,
                             std::uint64_t extra, Operand& out) {
    const Instr& bin = (*code)[at];
    steps += extra;
    if (int_binary(static_cast<BinaryOp>(bin.a), a, b, bin.loc, out)) {
      return true;
    }
    steps -= extra;
    return false;
  };
  // Continue at `next` with an inline BinaryApply result pushed, or, for a
  // Bool that a JumpIfFalse at `next` tests, take that branch directly.
  const auto push_or_branch = [&](Operand out, std::size_t next) {
    if (out.kind == TypeKind::Bool && next < code->size() &&
        (*code)[next].op == Op::JumpIfFalse) {
      ++steps;
      fr->pc = out.b ? next + 1 : static_cast<std::size_t>((*code)[next].a);
      return;
    }
    stack_.push_back(std::move(out));
    fr->pc = next;
  };

  for (;;) {
    if (fr->pc >= code->size()) {
      // Only the top-level chunk ends without an explicit Return.
      if (!do_return(Operand())) return;
      continue;
    }
    const Instr& in = (*code)[fr->pc++];
    ++steps;
    switch (in.op) {
      case Op::PushInt: {
        // Fused: `PushInt k; BinaryApply op` on an Int top of stack.
        Operand out;
        if (fr->pc < code->size() && (*code)[fr->pc].op == Op::BinaryApply &&
            !stack_.empty()) {
          const std::int64_t* a = if_int(stack_.back());
          if (a && fused_int(fr->pc, *a, in.a, 1, out)) {
            stack_.pop_back();
            push_or_branch(std::move(out), fr->pc + 1);
            break;
          }
        }
        stack_.emplace_back(in.a);
        break;
      }
      case Op::PushFloat:
        stack_.emplace_back(bc_.floats[in.b]);
        break;
      case Op::PushBool:
        stack_.emplace_back(in.a != 0);
        break;
      case Op::PushString:
        stack_.emplace_back(Value::make_string(bc_.strings[in.b]));
        break;
      case Op::Pop:
        (void)pop(in.loc);
        break;

      case Op::QuintLit:
        stack_.emplace_back(runtime_.quantum_int_lit(in.a, loc_of(in.loc)));
        break;
      case Op::QustringLit:
        stack_.emplace_back(
            runtime_.quantum_string_lit(bc_.strings[in.b], loc_of(in.loc)));
        break;
      case Op::KetState:
        stack_.emplace_back(runtime_.ket_lit(static_cast<KetKind>(in.a)));
        break;

      case Op::SupBegin:
        sups_.emplace_back();
        break;
      case Op::SupElem: {
        if (sups_.empty()) {
          throw LangError("bytecode: stray literal-builder op", loc_of(in.loc));
        }
        runtime_.sup_element(sups_.back(), pop_cell(in.loc), loc_of(in.loc));
        break;
      }
      case Op::SupEnd: {
        if (sups_.empty()) {
          throw LangError("bytecode: stray literal-builder op", loc_of(in.loc));
        }
        stack_.emplace_back(runtime_.sup_finish(sups_.back(), loc_of(in.loc)));
        sups_.pop_back();
        break;
      }
      case Op::ArrBegin:
        arrs_.emplace_back();
        break;
      case Op::ArrElem: {
        if (arrs_.empty()) {
          throw LangError("bytecode: stray literal-builder op", loc_of(in.loc));
        }
        Runtime::arr_element(arrs_.back(), pop_cell(in.loc), loc_of(in.loc));
        break;
      }
      case Op::ArrEnd: {
        if (arrs_.empty()) {
          throw LangError("bytecode: stray literal-builder op", loc_of(in.loc));
        }
        Runtime::ArrBuilder builder = std::move(arrs_.back());
        arrs_.pop_back();
        stack_.emplace_back(
            Value::make_array(builder.element, std::move(builder.items)));
        break;
      }

      case Op::LoadLocal:
      case Op::LoadGlobal: {
        Frame& owner = in.op == Op::LoadGlobal ? frames_.front() : *fr;
        const ValuePtr& v = owner.slots[in.b];
        if (!v) {
          throw LangError(
              "use of undeclared variable '" +
                  bc_.strings[owner.chunk->slot_names[in.b]] + "'",
              loc_of(in.loc));
        }
        // Fused: `Load s; PushInt k | Load t; BinaryApply op` over Ints
        // pushes the inline result, with no copy of either cell.
        if (fr->pc + 1 < code->size() &&
            (*code)[fr->pc + 1].op == Op::BinaryApply) {
          const std::int64_t* a = v->if_int();
          const std::int64_t* b = a ? int_operand((*code)[fr->pc]) : nullptr;
          Operand out;
          if (b && fused_int(fr->pc + 1, *a, *b, 2, out)) {
            push_or_branch(std::move(out), fr->pc + 2);
            break;
          }
        }
        stack_.emplace_back(v);
        break;
      }
      case Op::CheckLocal:
      case Op::CheckGlobal: {
        Frame& owner = in.op == Op::CheckGlobal ? frames_.front() : *fr;
        const ValuePtr& slot = owner.slots[in.b];
        if (!slot) {
          throw LangError(
              "assignment to undeclared variable '" +
                  bc_.strings[owner.chunk->slot_names[in.b]] + "'",
              loc_of(in.loc));
        }
        // Fused: `Check s; PushInt k; Compound op s` updates an Int slot
        // in place.
        const Op compound_op =
            in.op == Op::CheckGlobal ? Op::CompoundGlobal : Op::CompoundLocal;
        const std::int64_t* a = slot->if_int();
        if (a && fr->pc + 1 < code->size() &&
            (*code)[fr->pc].op == Op::PushInt &&
            (*code)[fr->pc + 1].op == compound_op &&
            (*code)[fr->pc + 1].b == in.b) {
          const Instr& update = (*code)[fr->pc + 1];
          Operand out;
          steps += 2;
          if (int_binary(static_cast<BinaryOp>(update.a), *a,
                         (*code)[fr->pc].a, update.loc, out) &&
              out.kind == TypeKind::Int) {
            slot->set_int(out.i);
            fr->pc += 2;
            break;
          }
          steps -= 2;
        }
        break;
      }
      case Op::AssignLocal:
      case Op::AssignGlobal: {
        Operand rhs = pop(in.loc);
        Frame& owner = in.op == Op::AssignGlobal ? frames_.front() : *fr;
        const ValuePtr& slot = owner.slots[in.b];
        if (!slot) {
          throw LangError(
              "assignment to undeclared variable '" +
                  bc_.strings[owner.chunk->slot_names[in.b]] + "'",
              loc_of(in.loc));
        }
        assign(slot, std::move(rhs), in.loc);
        break;
      }
      case Op::CompoundLocal:
      case Op::CompoundGlobal: {
        Operand rhs = pop(in.loc);
        Frame& owner = in.op == Op::CompoundGlobal ? frames_.front() : *fr;
        const std::string& name = bc_.strings[owner.chunk->slot_names[in.b]];
        const ValuePtr& slot = owner.slots[in.b];
        if (!slot) {
          throw LangError("assignment to undeclared variable '" + name + "'",
                          loc_of(in.loc));
        }
        compound(name, slot, static_cast<BinaryOp>(in.a), std::move(rhs),
                 in.loc);
        break;
      }

      case Op::CheckIndexTarget: {
        const Operand& target = peek(in.loc);
        if (!target.cell || !target.cell->is_array()) {
          throw LangError("only array elements can be assigned by index",
                          loc_of(in.loc));
        }
        break;
      }
      case Op::IndexPrep: {
        Operand index_v = pop(in.loc);
        const std::int64_t index =
            index_v.cell ? runtime_.classical_of(index_v.cell)->as_int()
                         : int_of(index_v);
        const std::size_t size = box(peek(in.loc))->as_array().items.size();
        if (index < 0 || static_cast<std::size_t>(index) >= size) {
          throw LangError("array index out of range", loc_of(in.loc));
        }
        stack_.emplace_back(index);
        break;
      }
      case Op::AssignIndex:
      case Op::CompoundIndex: {
        Operand rhs = pop(in.loc);
        const std::int64_t index = int_of(pop(in.loc));
        const ValuePtr target = pop_cell(in.loc);
        // Re-check: the rhs ran with the array reachable and may have
        // resized it (the tree-walk holds a raw element reference across
        // that window — undefined; the VM stays defined and re-indexes).
        auto& arr = target->as_array();
        if (index < 0 || static_cast<std::size_t>(index) >= arr.items.size()) {
          throw LangError("array index out of range", loc_of(in.loc));
        }
        const ValuePtr& item = arr.items[static_cast<std::size_t>(index)];
        if (in.op == Op::CompoundIndex) {
          compound("<element>", item, static_cast<BinaryOp>(in.a),
                   std::move(rhs), in.loc);
        } else {
          assign(item, std::move(rhs), in.loc);
        }
        break;
      }
      case Op::IndexGet: {
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

      case Op::Declare:
      case Op::BindInit:
      case Op::DeclareDefault:
      case Op::DeclarePromoteInt:
      case Op::DeclarePromoteString: {
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
          fr->slots[in.b] = nullptr;
        }
        const QType& type = bc_.types[in.c];
        switch (in.op) {
          case Op::Declare:
            break;  // value bound by the BindInit after the initializer
          case Op::BindInit: {
            const ValuePtr init = pop_cell(in.loc);
            fr->slots[in.b] =
                runtime_.bind_decl_init(init, type, name, loc_of(in.loc));
            break;
          }
          case Op::DeclareDefault:
            fr->slots[in.b] = runtime_.default_init(type, name, loc_of(in.loc));
            break;
          case Op::DeclarePromoteInt: {
            const Value classical(QType::scalar(TypeKind::Int), in.a);
            fr->slots[in.b] = runtime_.casting().promote(
                classical, name, type.quint_width, loc_of(in.loc));
            break;
          }
          case Op::DeclarePromoteString: {
            const Value classical(QType::scalar(TypeKind::String),
                                  bc_.strings[static_cast<std::uint32_t>(in.a)]);
            fr->slots[in.b] =
                runtime_.casting().promote(classical, name, 0, loc_of(in.loc));
            break;
          }
          default:
            break;
        }
        break;
      }
      case Op::ScopeExit:
        for (const std::uint32_t slot : fr->chunk->scopes[in.b]) {
          fr->slots[slot] = nullptr;
          fr->declared[slot] = 0;
          fr->declared_at[slot] = 0;
        }
        break;

      case Op::UnaryApply: {
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
          stack_.emplace_back(runtime_.unary(op, box(std::move(v)), loc_of(in.loc)));
        }
        break;
      }
      case Op::BinaryApply: {
        Operand rhs = pop(in.loc);
        Operand lhs = pop(in.loc);
        const auto op = static_cast<BinaryOp>(in.a);
        Operand out;
        if ((kind_of(lhs) == TypeKind::Int && kind_of(rhs) == TypeKind::Int &&
             int_binary(op, int_of(lhs), int_of(rhs), in.loc, out)) ||
            float_binary(op, lhs, rhs, in.loc, out)) {
          // Fused when a JumpIfFalse tests the result: see push_or_branch.
          push_or_branch(std::move(out), fr->pc);
        } else {
          stack_.emplace_back(runtime_.evaluate_binary(
              op, box(std::move(lhs)), box(std::move(rhs)), loc_of(in.loc)));
        }
        break;
      }
      case Op::ToBool:
        stack_.emplace_back(truthy(pop(in.loc), in.loc));
        break;

      case Op::Jump:
        fr->pc = static_cast<std::size_t>(in.a);
        break;
      case Op::JumpIfFalse:
        if (!truthy(pop(in.loc), in.loc)) fr->pc = static_cast<std::size_t>(in.a);
        break;
      case Op::JumpIfFalsePeek:
        if (!bool_of(peek(in.loc))) fr->pc = static_cast<std::size_t>(in.a);
        break;
      case Op::JumpIfTruePeek:
        if (bool_of(peek(in.loc))) fr->pc = static_cast<std::size_t>(in.a);
        break;
      case Op::LoopReset:
        fr->loops[in.b] = 0;
        break;
      case Op::LoopBump:
        if (++fr->loops[in.b] > kMaxWhileIterations) {
          throw LangError("while loop exceeded the iteration budget",
                          loc_of(in.loc));
        }
        // Fused: `LoopBump; Jump` (the back edge of every while loop).
        if (fr->pc < code->size() && (*code)[fr->pc].op == Op::Jump) {
          ++steps;
          fr->pc = static_cast<std::size_t>((*code)[fr->pc].a);
        }
        break;
      case Op::ForeachInit: {
        const ValuePtr iterable = pop_cell(in.loc);
        fr->iters[in.b] = {runtime_.iterate_items(iterable, loc_of(in.loc)), 0};
        break;
      }
      case Op::ForeachNext: {
        Frame::Iter& iter = fr->iters[in.b];
        if (iter.next >= iter.items.size()) {
          iter = {};
          fr->pc = static_cast<std::size_t>(in.a);
        } else {
          fr->slots[in.c] = iter.items[iter.next++];
          fr->declared[in.c] = 1;
          fr->declared_at[in.c] = in.loc;
        }
        break;
      }

      case Op::CallBuiltin: {
        const auto argc = static_cast<std::size_t>(in.a);
        std::vector<ValuePtr> args(argc);
        for (std::size_t i = argc; i-- > 0;) args[i] = pop_cell(in.loc);
        const BuiltinFn& fn = builtin_of(in.b, in.loc);
        ValuePtr result = fn(runtime_, args, loc_of(in.loc));
        if (!result) result = Value::make_void();
        stack_.emplace_back(std::move(result));
        break;
      }
      case Op::CallUser: {
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
        if (stack_.size() < argc) {
          throw LangError("bytecode: stack underflow", loc_of(in.loc));
        }
        // The arguments are coerced where they lie on the operand stack.
        const std::size_t base = stack_.size() - argc;
        Frame& frame = push_frame(callee, in.loc);
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
              box(std::move(stack_[base + i])), bc_.types[callee.params[i].type],
              bc_.strings[callee.params[i].name], loc_of(in.loc));
          frame.declared[i] = 1;
          frame.declared_at[i] = in.loc;
        }
        stack_.resize(base);
        refresh();
        break;
      }
      case Op::Return: {
        if (!do_return(in.a != 0 ? pop(in.loc) : Operand())) return;
        break;
      }

      case Op::Print:
        runtime_.emit_output(runtime_.render_for_print(pop_cell(in.loc)) + "\n");
        break;
      case Op::Barrier:
        runtime_.handler().barrier();
        break;
      case Op::GateApply: {
        const ValuePtr v = pop_cell(in.loc);
        runtime_.apply_gate_value(static_cast<GateKind>(in.a), v,
                                  loc_of(in.loc));
        break;
      }

      case Op::ThrowUseUndeclared:
        throw LangError(
            "use of undeclared variable '" + bc_.strings[in.b] + "'",
            loc_of(in.loc));
      case Op::ThrowAssignUndeclared:
        throw LangError(
            "assignment to undeclared variable '" + bc_.strings[in.b] + "'",
            loc_of(in.loc));
      case Op::ThrowUnknownFunction:
        throw LangError("call to unknown function '" + bc_.strings[in.b] + "'",
                        loc_of(in.loc));
    }
  }
}

}  // namespace qutes::lang
