#include "qutes/lang/interpreter.hpp"

#include "qutes/lang/builtins.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::lang {

Interpreter::Interpreter(InterpreterOptions options)
    : scope_(std::make_shared<Scope>()),
      runtime_(options.seed, options.echo),
      trace_(options.trace) {
  runtime_.set_bind_params(std::move(options.bind_params),
                           options.allow_unbound_params);
}

namespace {

/// Human-readable tag for trace lines.
class StmtTagger final : public StmtVisitor {
public:
  const char* tag = "stmt";
  void visit(VarDeclStmt&) override { tag = "decl"; }
  void visit(AssignStmt&) override { tag = "assign"; }
  void visit(ExprStmt&) override { tag = "expr"; }
  void visit(BlockStmt&) override { tag = "block"; }
  void visit(IfStmt&) override { tag = "if"; }
  void visit(WhileStmt&) override { tag = "while"; }
  void visit(ForeachStmt&) override { tag = "foreach"; }
  void visit(FuncDeclStmt&) override { tag = "funcdecl"; }
  void visit(ReturnStmt&) override { tag = "return"; }
  void visit(PrintStmt&) override { tag = "print"; }
  void visit(BarrierStmt&) override { tag = "barrier"; }
  void visit(GateStmt&) override { tag = "gate"; }
};

}  // namespace

void Interpreter::run(Program& program, FunctionTable& functions) {
  obs::Span span("lang.interpret");
  functions_ = &functions;
  for (const StmtPtr& stmt : program.statements) execute(*stmt);
}

void Interpreter::execute(Stmt& stmt) {
  if (trace_ != nullptr) {
    StmtTagger tagger;
    stmt.accept(tagger);
    (*trace_) << "[trace] " << stmt.location.to_string() << " " << tagger.tag
              << "  (qubits=" << handler().num_qubits()
              << " gates=" << handler().circuit().gate_count() << ")\n";
  }
  stmt.accept(*this);
}

ValuePtr Interpreter::evaluate(Expr& expr) {
  if (eval_depth_ >= kMaxEvalDepth) {
    throw LangError("expression too deep to evaluate (depth limit " +
                        std::to_string(kMaxEvalDepth) + ")",
                    expr.location);
  }
  ++eval_depth_;
  struct DepthGuard {
    std::size_t& depth;
    ~DepthGuard() { --depth; }
  } guard{eval_depth_};
  expr.accept(*this);
  ValuePtr value = std::move(result_);
  if (!value) {
    throw LangError("internal: expression produced no value", expr.location);
  }
  return value;
}

// ---------------------------------------------------------------------------
// Expression visitors
// ---------------------------------------------------------------------------

void Interpreter::visit(IntLitExpr& expr) { result_ = Value::make_int(expr.value); }
void Interpreter::visit(FloatLitExpr& expr) { result_ = Value::make_float(expr.value); }
void Interpreter::visit(BoolLitExpr& expr) { result_ = Value::make_bool(expr.value); }
void Interpreter::visit(StringLitExpr& expr) {
  result_ = Value::make_string(expr.value);
}

void Interpreter::visit(QuantumIntLitExpr& expr) {
  result_ = runtime_.quantum_int_lit(expr.value, expr.location);
}

void Interpreter::visit(QuantumStringLitExpr& expr) {
  result_ = runtime_.quantum_string_lit(expr.bits, expr.location);
}

void Interpreter::visit(KetLitExpr& expr) { result_ = runtime_.ket_lit(expr.kind); }

void Interpreter::visit(ArrayLitExpr& expr) {
  if (expr.superposition) {
    // `[v0, v1, ...]q`: equal superposition of the listed basis values on a
    // fresh quint.
    Runtime::SupBuilder builder;
    for (const ExprPtr& element : expr.elements) {
      runtime_.sup_element(builder, evaluate(*element), expr.location);
    }
    result_ = runtime_.sup_finish(builder, expr.location);
    return;
  }

  Runtime::ArrBuilder builder;
  for (const ExprPtr& node : expr.elements) {
    Runtime::arr_element(builder, evaluate(*node), expr.location);
  }
  result_ = Value::make_array(builder.element, std::move(builder.items));
}

void Interpreter::visit(VarRefExpr& expr) {
  Symbol* symbol = scope_->lookup(expr.name);
  if (symbol == nullptr || !symbol->value) {
    throw LangError("use of undeclared variable '" + expr.name + "'", expr.location);
  }
  result_ = symbol->value;
}

void Interpreter::visit(IndexExpr& expr) {
  const ValuePtr target = evaluate(*expr.target);
  const ValuePtr index = evaluate(*expr.index);
  result_ = runtime_.index_value(target, index, expr.location);
}

void Interpreter::visit(CallExpr& expr) {
  std::vector<ValuePtr> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) args.push_back(evaluate(*arg));

  const auto& builtins = builtin_table();
  const auto bit = builtins.find(expr.callee);
  if (bit != builtins.end()) {
    result_ = bit->second(runtime_, args, expr.location);
    if (!result_) result_ = Value::make_void();
    return;
  }

  FuncDeclStmt* fn = functions_ != nullptr ? functions_->lookup(expr.callee) : nullptr;
  if (fn == nullptr) {
    throw LangError("call to unknown function '" + expr.callee + "'", expr.location);
  }
  result_ = call_user_function(*fn, std::move(args), expr.location);
}

ValuePtr Interpreter::call_user_function(FuncDeclStmt& fn, std::vector<ValuePtr> args,
                                         SourceLocation loc) {
  if (args.size() != fn.params.size()) {
    throw LangError("function '" + fn.name + "' expects " +
                        std::to_string(fn.params.size()) + " arguments, got " +
                        std::to_string(args.size()),
                    loc);
  }
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    throw LangError("call depth exceeded (" + std::to_string(kMaxCallDepth) + ")", loc);
  }

  // Function scope chains to the GLOBAL scope (lexical top level), not to
  // the caller's scope.
  std::shared_ptr<Scope> global = scope_;
  while (global->parent()) global = global->parent();
  auto fn_scope = std::make_shared<Scope>(global);

  for (std::size_t i = 0; i < args.size(); ++i) {
    Symbol& symbol = fn_scope->declare(fn.params[i].name, fn.params[i].type, loc);
    // coerce() returns the same ValuePtr for matching types, so arguments
    // alias caller storage: pass-by-reference (paper §4).
    symbol.value = casting().coerce(args[i], fn.params[i].type, fn.params[i].name, loc);
  }

  const std::shared_ptr<Scope> saved = scope_;
  scope_ = fn_scope;
  ValuePtr returned = Value::make_void();
  try {
    for (const StmtPtr& stmt : fn.body->statements) execute(*stmt);
  } catch (ReturnSignal& signal) {
    returned = signal.value ? signal.value : Value::make_void();
  } catch (...) {
    scope_ = saved;
    --call_depth_;
    throw;
  }
  scope_ = saved;
  --call_depth_;

  if (fn.return_type.kind == TypeKind::Void) return Value::make_void();
  return casting().coerce(returned, fn.return_type, fn.name + "() result", loc);
}

void Interpreter::visit(UnaryExpr& expr) {
  result_ = runtime_.unary(expr.op, evaluate(*expr.operand), expr.location);
}

void Interpreter::visit(BinaryExpr& expr) {
  // Short-circuit logic first.
  if (expr.op == BinaryOp::And || expr.op == BinaryOp::Or) {
    const bool lhs = casting().condition_bool(*evaluate(*expr.lhs), expr.location);
    if (expr.op == BinaryOp::And && !lhs) {
      result_ = Value::make_bool(false);
      return;
    }
    if (expr.op == BinaryOp::Or && lhs) {
      result_ = Value::make_bool(true);
      return;
    }
    result_ = Value::make_bool(
        casting().condition_bool(*evaluate(*expr.rhs), expr.location));
    return;
  }
  ValuePtr lhs = evaluate(*expr.lhs);
  ValuePtr rhs = evaluate(*expr.rhs);
  result_ = runtime_.evaluate_binary(expr.op, lhs, rhs, expr.location);
}

// ---------------------------------------------------------------------------
// Statement visitors
// ---------------------------------------------------------------------------

void Interpreter::visit(VarDeclStmt& stmt) {
  Symbol& symbol = scope_->declare(stmt.name, stmt.type, stmt.location);

  if (!stmt.init) {
    symbol.value = runtime_.default_init(stmt.type, stmt.name, stmt.location);
    return;
  }

  // Quantum declarations with literal initializers build their register
  // directly at the declared width/name (e.g. quint<8> x = 5q).
  if (stmt.type.kind == TypeKind::Quint || stmt.type.kind == TypeKind::Qubit ||
      stmt.type.kind == TypeKind::Qustring) {
    if (auto* lit = dynamic_cast<QuantumIntLitExpr*>(stmt.init.get())) {
      const Value classical(QType::scalar(TypeKind::Int), lit->value);
      symbol.value =
          casting().promote(classical, stmt.name, stmt.type.quint_width, stmt.location);
      return;
    }
    if (auto* lit = dynamic_cast<IntLitExpr*>(stmt.init.get())) {
      const Value classical(QType::scalar(TypeKind::Int), lit->value);
      symbol.value =
          casting().promote(classical, stmt.name, stmt.type.quint_width, stmt.location);
      return;
    }
    if (auto* lit = dynamic_cast<QuantumStringLitExpr*>(stmt.init.get())) {
      const Value classical(QType::scalar(TypeKind::String), lit->bits);
      symbol.value = casting().promote(classical, stmt.name, 0, stmt.location);
      return;
    }
  }

  ValuePtr value = evaluate(*stmt.init);
  symbol.value = runtime_.bind_decl_init(value, stmt.type, stmt.name, stmt.location);
}

ValuePtr& Interpreter::resolve_slot(Expr& lvalue) {
  if (auto* ref = dynamic_cast<VarRefExpr*>(&lvalue)) {
    Symbol* symbol = scope_->lookup(ref->name);
    if (symbol == nullptr || !symbol->value) {
      throw LangError("assignment to undeclared variable '" + ref->name + "'",
                      ref->location);
    }
    return symbol->value;
  }
  if (auto* idx = dynamic_cast<IndexExpr*>(&lvalue)) {
    const ValuePtr target = evaluate(*idx->target);
    if (!target->is_array()) {
      throw LangError("only array elements can be assigned by index", idx->location);
    }
    const std::int64_t index =
        runtime_.classical_of(evaluate(*idx->index))->as_int();
    auto& arr = target->as_array();
    if (index < 0 || static_cast<std::size_t>(index) >= arr.items.size()) {
      throw LangError("array index out of range", idx->location);
    }
    return arr.items[static_cast<std::size_t>(index)];
  }
  throw LangError("invalid assignment target", lvalue.location);
}

void Interpreter::visit(AssignStmt& stmt) {
  ValuePtr& slot = resolve_slot(*stmt.lvalue);

  if (stmt.compound) {
    // Name for in-place quantum error messages; array elements get a
    // synthetic one.
    std::string name = "<element>";
    if (auto* ref = dynamic_cast<VarRefExpr*>(stmt.lvalue.get())) {
      name = ref->name;
    }
    const ValuePtr rhs = evaluate(*stmt.value);
    runtime_.compound_assign(name, slot, *stmt.compound, rhs, stmt.location);
    return;
  }

  const ValuePtr rhs = evaluate(*stmt.value);
  runtime_.assign_plain(slot, rhs, stmt.location);
}

void Interpreter::visit(ExprStmt& stmt) { (void)evaluate(*stmt.expr); }

void Interpreter::visit(BlockStmt& stmt) {
  const std::shared_ptr<Scope> saved = scope_;
  scope_ = std::make_shared<Scope>(saved);
  try {
    for (const StmtPtr& child : stmt.statements) execute(*child);
  } catch (...) {
    scope_ = saved;
    throw;
  }
  scope_ = saved;
}

void Interpreter::visit(IfStmt& stmt) {
  const bool condition =
      casting().condition_bool(*evaluate(*stmt.condition), stmt.location);
  if (condition) {
    execute(*stmt.then_branch);
  } else if (stmt.else_branch) {
    execute(*stmt.else_branch);
  }
}

void Interpreter::visit(WhileStmt& stmt) {
  std::size_t iterations = 0;
  while (casting().condition_bool(*evaluate(*stmt.condition), stmt.location)) {
    execute(*stmt.body);
    if (++iterations > kMaxWhileIterations) {
      throw LangError("while loop exceeded the iteration budget", stmt.location);
    }
  }
}

void Interpreter::visit(ForeachStmt& stmt) {
  const ValuePtr iterable = evaluate(*stmt.iterable);
  std::vector<ValuePtr> items;
  runtime_.iterate_items(iterable, stmt.location, items);

  for (const ValuePtr& item : items) {
    const std::shared_ptr<Scope> saved = scope_;
    scope_ = std::make_shared<Scope>(saved);
    Symbol& symbol = scope_->declare(stmt.var_name, item->type(), stmt.location);
    symbol.value = item;
    try {
      execute(*stmt.body);
    } catch (...) {
      scope_ = saved;
      throw;
    }
    scope_ = saved;
  }
}

void Interpreter::visit(FuncDeclStmt&) {
  // Functions were registered in pass 1; nothing happens at execution time.
}

void Interpreter::visit(ReturnStmt& stmt) {
  ReturnSignal signal;
  signal.value = stmt.value ? evaluate(*stmt.value) : Value::make_void();
  throw signal;
}

void Interpreter::visit(PrintStmt& stmt) {
  const ValuePtr value = evaluate(*stmt.value);
  emit_output(render_for_print(value) + "\n");
}

void Interpreter::visit(BarrierStmt&) { handler().barrier(); }

void Interpreter::visit(GateStmt& stmt) {
  for (const ExprPtr& operand : stmt.operands) {
    const ValuePtr value = evaluate(*operand);
    runtime_.apply_gate_value(stmt.gate, value, stmt.location);
  }
}

}  // namespace qutes::lang
