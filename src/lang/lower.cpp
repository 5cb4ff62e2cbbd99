#include "qutes/lang/lower.hpp"

#include <unordered_map>

#include "qutes/lang/builtins.hpp"
#include "qutes/lang/runtime.hpp"
#include "qutes/lang/stdlib.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::lang {
namespace {

constexpr std::uint32_t kNoPc = 0xffffffffu;

/// The final class of an expression node.
enum class ExprKind {
  IntLit, FloatLit, BoolLit, StringLit, QuantumIntLit, QuantumStringLit,
  KetLit, ArrayLit, VarRef, Index, Call, Unary, Binary,
};

/// One virtual dispatch per node: a chain of dynamic_casts would walk the
/// type info once per failed test.
ExprKind kind_of(Expr& expr) {
  struct Classifier final : ExprVisitor {
    ExprKind kind = ExprKind::IntLit;
    void visit(IntLitExpr&) override { kind = ExprKind::IntLit; }
    void visit(FloatLitExpr&) override { kind = ExprKind::FloatLit; }
    void visit(BoolLitExpr&) override { kind = ExprKind::BoolLit; }
    void visit(StringLitExpr&) override { kind = ExprKind::StringLit; }
    void visit(QuantumIntLitExpr&) override { kind = ExprKind::QuantumIntLit; }
    void visit(QuantumStringLitExpr&) override {
      kind = ExprKind::QuantumStringLit;
    }
    void visit(KetLitExpr&) override { kind = ExprKind::KetLit; }
    void visit(ArrayLitExpr&) override { kind = ExprKind::ArrayLit; }
    void visit(VarRefExpr&) override { kind = ExprKind::VarRef; }
    void visit(IndexExpr&) override { kind = ExprKind::Index; }
    void visit(CallExpr&) override { kind = ExprKind::Call; }
    void visit(UnaryExpr&) override { kind = ExprKind::Unary; }
    void visit(BinaryExpr&) override { kind = ExprKind::Binary; }
  } classifier;
  expr.accept(classifier);
  return classifier.kind;
}

class Lowerer final : public StmtVisitor {
public:
  /// Starts empty, or from a copy of `linked`'s bytecode, whose chunks then
  /// stay as they are. Lookups fall through to `linked`'s maps, so this
  /// lowering's own maps hold only what it adds.
  Lowerer(const FunctionTable& functions, std::uint64_t source_hash,
          const LoweredLibrary* linked)
      : functions_(functions), linked_(linked) {
    if (linked != nullptr) {
      bc_ = linked->bytecode;
    } else {
      bc_.locations.push_back(SourceLocation{});  // index 0 = "<builtin>"
      bc_.chunks.emplace_back();                  // main
    }
    bc_.source_hash = source_hash;
  }

  LoweredLibrary run(Program& program) {
    // Chunk indices first, so call sites in any chunk (main included)
    // resolve to the final layout: main = 0, the linked chunks, then the
    // functions lowered here in name order.
    const std::size_t first_own = bc_.chunks.size();
    for (const auto& [name, fn] : functions_.items()) {
      (void)fn;
      if (chunk_of(name) != nullptr) continue;  // a linked chunk
      chunk_index_.emplace(name, static_cast<std::uint32_t>(bc_.chunks.size()));
      bc_.chunks.emplace_back();
    }

    // Main chunk: only the program's own statements (stdlib contributes
    // functions, not top-level effects). Its root scope map is completed
    // in-order and then frozen as the global frame layout.
    begin_chunk(0, "", QType::scalar(TypeKind::Void));
    for (const StmtPtr& stmt : program.statements) lower_stmt(*stmt);
    global_names_ = scopes_.front().names;
    end_chunk();

    for (const auto& [name, fn] : functions_.items()) {
      const auto own = chunk_index_.find(name);
      if (own != chunk_index_.end()) lower_function(own->second, *fn);
    }

    // The linked chunks were validated when the image was built; the pools
    // and the chunk table only grew since, so every index they hold is
    // still in range.
    bc_.validate(1, first_own);
    return {std::move(bc_), std::move(chunk_index_), std::move(str_pool_),
            std::move(loc_pool_)};
  }

private:
  struct ScopeInfo {
    std::unordered_map<std::string, std::uint32_t> names;
    std::vector<std::uint32_t> slots;  ///< slots this scope itself declared
  };

  // ---- pools ----------------------------------------------------------------

  /// `key` in the linked image's map, then in this lowering's own.
  template <typename Key>
  static const std::uint32_t* find(
      const std::unordered_map<Key, std::uint32_t>* linked,
      const std::unordered_map<Key, std::uint32_t>& own, const Key& key) {
    if (linked != nullptr) {
      const auto it = linked->find(key);
      if (it != linked->end()) return &it->second;
    }
    const auto it = own.find(key);
    return it != own.end() ? &it->second : nullptr;
  }

  /// The chunk of function `name`, or nullptr.
  const std::uint32_t* chunk_of(const std::string& name) const {
    return find(linked_ ? &linked_->chunk_index : nullptr, chunk_index_, name);
  }

  std::uint32_t intern_str(const std::string& s) {
    if (const std::uint32_t* idx =
            find(linked_ ? &linked_->strings : nullptr, str_pool_, s)) {
      return *idx;
    }
    const auto idx = static_cast<std::uint32_t>(bc_.strings.size());
    bc_.strings.push_back(s);
    str_pool_.emplace(s, idx);
    return idx;
  }

  std::uint32_t intern_float(double v) {
    const auto idx = static_cast<std::uint32_t>(bc_.floats.size());
    bc_.floats.push_back(v);
    return idx;
  }

  std::uint32_t intern_type(const QType& t) {
    for (std::size_t i = 0; i < bc_.types.size(); ++i) {
      const QType& have = bc_.types[i];
      // QType::operator== ignores quint_width; the declared width matters
      // here (it drives register allocation), so compare it explicitly.
      if (have.kind == t.kind && have.element == t.element &&
          have.quint_width == t.quint_width)
        return static_cast<std::uint32_t>(i);
    }
    bc_.types.push_back(t);
    return static_cast<std::uint32_t>(bc_.types.size() - 1);
  }

  std::uint32_t intern_loc(SourceLocation loc) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(loc.line) << 32) ^ loc.column;
    if (const std::uint32_t* idx =
            find(linked_ ? &linked_->locations : nullptr, loc_pool_, key)) {
      return *idx;
    }
    const auto idx = static_cast<std::uint32_t>(bc_.locations.size());
    bc_.locations.push_back(loc);
    loc_pool_.emplace(key, idx);
    return idx;
  }

  // ---- emission -------------------------------------------------------------

  std::uint32_t emit(Op op, std::int64_t a, std::uint32_t b, std::uint32_t c,
                     SourceLocation loc) {
    Instr in;
    in.op = op;
    in.a = a;
    in.b = b;
    in.c = c;
    in.loc = intern_loc(loc);
    chunk_->code.push_back(in);
    return static_cast<std::uint32_t>(chunk_->code.size() - 1);
  }

  [[nodiscard]] std::uint32_t here() const {
    return static_cast<std::uint32_t>(chunk_->code.size());
  }

  void patch(std::uint32_t pc, std::uint32_t target) {
    chunk_->code[pc].a = target;
  }

  // ---- chunk & scope management ---------------------------------------------

  void begin_chunk(std::uint32_t index, const std::string& name,
                   const QType& return_type) {
    chunk_ = &bc_.chunks[index];
    chunk_->name = intern_str(name);
    chunk_->return_type = intern_type(return_type);
    in_function_ = index != 0;
    scopes_.clear();
    scopes_.emplace_back();
  }

  void end_chunk() {
    scopes_.clear();
    chunk_ = nullptr;
  }

  void lower_function(std::uint32_t index, FuncDeclStmt& fn) {
    begin_chunk(index, fn.name, fn.return_type);
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      const Param& param = fn.params[i];
      ParamInfo info;
      info.name = intern_str(param.name);
      info.type = intern_type(param.type);
      chunk_->params.push_back(info);
      if (scopes_.front().names.count(param.name) != 0) {
        if (!chunk_->duplicate_param)
          chunk_->duplicate_param = static_cast<std::uint32_t>(i);
        new_slot(param.name);  // keep one slot per param position
      } else {
        scopes_.front().names.emplace(param.name, new_slot(param.name));
      }
    }
    // Body statements execute directly in the parameter scope (the
    // tree-walk does not open a block scope for the body).
    for (const StmtPtr& stmt : fn.body->statements) lower_stmt(*stmt);
    emit(Op::Return, 0, 0, 0, fn.location);  // implicit `return;`
    end_chunk();
  }

  std::uint32_t new_slot(const std::string& name) {
    const std::uint32_t slot = chunk_->num_slots++;
    chunk_->slot_names.push_back(intern_str(name));
    return slot;
  }

  /// Slot for a declaration in the current lexical scope. A same-name
  /// redeclaration reuses the slot (the Declare op raises the runtime
  /// redeclaration error if both executions are live).
  std::uint32_t declare_slot(const std::string& name) {
    ScopeInfo& scope = scopes_.back();
    const auto it = scope.names.find(name);
    if (it != scope.names.end()) return it->second;
    const std::uint32_t slot = new_slot(name);
    scope.names.emplace(name, slot);
    scope.slots.push_back(slot);
    return slot;
  }

  struct Resolved {
    enum class Where { Local, Global, Missing } where = Where::Missing;
    std::uint32_t slot = 0;
  };

  /// Mirror of the tree-walk's scope-chain lookup at this point of the
  /// program: lexical scopes inside the chunk, then (for function chunks)
  /// the completed top-level frame. Whether the global slot is *bound* at
  /// this instant is a runtime question; the Load/Assign ops re-check it.
  Resolved resolve(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto hit = it->names.find(name);
      if (hit != it->names.end())
        return {Resolved::Where::Local, hit->second};
    }
    if (in_function_) {
      const auto hit = global_names_.find(name);
      if (hit != global_names_.end())
        return {Resolved::Where::Global, hit->second};
    }
    return {};
  }

  // ---- constant folding -----------------------------------------------------

  /// Classical condition rules (TypeCastingHandler::condition_bool) for
  /// folded — hence classical scalar — values.
  static std::optional<bool> const_condition(const ValuePtr& v) {
    switch (v->kind()) {
      case TypeKind::Bool: return v->as_bool();
      case TypeKind::Int: return v->as_int() != 0;
      case TypeKind::Float: return v->as_float() != 0.0;
      case TypeKind::String: return !v->as_string().empty();
      default: return std::nullopt;
    }
  }

  /// Fold a literal subtree through the exact runtime rules, or decline.
  /// `depth` is the tree-walk's evaluate() entry depth for `expr`: a subtree
  /// the reference could not evaluate without tripping its recursion guard
  /// is never folded, so the guard trips at the same node either way.
  /// Subtrees whose evaluation throws (division by zero, type errors) are
  /// left unfolded so the error surfaces at runtime, exactly where the
  /// reference raises it.
  /// An operator that declined is remembered with its depth (a subtree that
  /// declines at one depth declines at every deeper one), so lower_expr's
  /// fold of each child along a chain that does not fold is O(1), not a
  /// re-walk of the child's whole subtree.
  std::optional<ValuePtr> fold(Expr& expr, std::size_t depth) {
    if (depth >= kMaxEvalDepth) return std::nullopt;
    switch (kind_of(expr)) {
      case ExprKind::IntLit:
        return Value::make_int(static_cast<IntLitExpr&>(expr).value);
      case ExprKind::FloatLit:
        return Value::make_float(static_cast<FloatLitExpr&>(expr).value);
      case ExprKind::BoolLit:
        return Value::make_bool(static_cast<BoolLitExpr&>(expr).value);
      case ExprKind::StringLit:
        return Value::make_string(static_cast<StringLitExpr&>(expr).value);
      case ExprKind::Unary:
      case ExprKind::Binary:
        break;
      default:
        return std::nullopt;
    }
    const auto declined = declined_at_.find(&expr);
    if (declined != declined_at_.end() && depth >= declined->second) {
      return std::nullopt;
    }
    auto v = kind_of(expr) == ExprKind::Unary
                 ? fold_unary(static_cast<UnaryExpr&>(expr), depth)
                 : fold_binary(static_cast<BinaryExpr&>(expr), depth);
    if (!v) declined_at_[&expr] = depth;
    return v;
  }

  std::optional<ValuePtr> fold_unary(UnaryExpr& un, std::size_t depth) {
    const auto v = fold(*un.operand, depth + 1);
    if (!v) return std::nullopt;
    switch (un.op) {
      case UnaryOp::Neg:
        if ((*v)->kind() == TypeKind::Float)
          return Value::make_float(-(*v)->as_float());
        if ((*v)->kind() == TypeKind::Int)
          return Value::make_int(static_cast<std::int64_t>(
              std::uint64_t{0} - static_cast<std::uint64_t>((*v)->as_int())));
        return std::nullopt;
      case UnaryOp::Not:
        if (const auto cond = const_condition(*v))
          return Value::make_bool(!*cond);
        return std::nullopt;
      case UnaryOp::BitNot:
        if ((*v)->kind() == TypeKind::Int)
          return Value::make_int(~(*v)->as_int());
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::optional<ValuePtr> fold_binary(BinaryExpr& bin, std::size_t depth) {
    if (bin.op == BinaryOp::And || bin.op == BinaryOp::Or) {
      const auto lhs = fold(*bin.lhs, depth + 1);
      if (!lhs) return std::nullopt;
      const auto lcond = const_condition(*lhs);
      if (!lcond) return std::nullopt;
      // The lhs alone may decide: the reference then never evaluates the
      // rhs, so an unfoldable (even over-deep) rhs does not block folding.
      if (bin.op == BinaryOp::And && !*lcond) return Value::make_bool(false);
      if (bin.op == BinaryOp::Or && *lcond) return Value::make_bool(true);
      const auto rhs = fold(*bin.rhs, depth + 1);
      if (!rhs) return std::nullopt;
      const auto rcond = const_condition(*rhs);
      if (!rcond) return std::nullopt;
      return Value::make_bool(*rcond);
    }
    if (bin.op == BinaryOp::In) return std::nullopt;
    const auto lhs = fold(*bin.lhs, depth + 1);
    if (!lhs) return std::nullopt;
    const auto rhs = fold(*bin.rhs, depth + 1);
    if (!rhs) return std::nullopt;
    try {
      return Runtime::classical_binary(bin.op, *lhs, *rhs, bin.location);
    } catch (const Error&) {
      return std::nullopt;
    }
  }

  void emit_const(const ValuePtr& v, SourceLocation loc) {
    switch (v->kind()) {
      case TypeKind::Int:
        emit(Op::PushInt, v->as_int(), 0, 0, loc);
        return;
      case TypeKind::Float:
        emit(Op::PushFloat, 0, intern_float(v->as_float()), 0, loc);
        return;
      case TypeKind::Bool:
        emit(Op::PushBool, v->as_bool() ? 1 : 0, 0, 0, loc);
        return;
      case TypeKind::String:
        emit(Op::PushString, 0, intern_str(v->as_string()), 0, loc);
        return;
      default:
        throw LangError("internal: unexpected folded constant kind", loc);
    }
  }

  // ---- expressions ----------------------------------------------------------

  void lower_expr(Expr& expr) {
    // Static mirror of the tree-walk's evaluate() recursion guard: same
    // limit, same message, same node. (The static check is eager — it fires
    // for an over-deep expression even on a dynamically-dead path, like any
    // compile-time diagnostic.)
    if (depth_ >= kMaxEvalDepth) {
      throw LangError("expression too deep to evaluate (depth limit " +
                          std::to_string(kMaxEvalDepth) + ")",
                      expr.location);
    }
    ++depth_;
    struct DepthGuard {
      std::size_t& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};

    // A literal emits itself (what folding it would emit); only operators
    // are worth a fold.
    switch (kind_of(expr)) {
      case ExprKind::IntLit:
        emit(Op::PushInt, static_cast<IntLitExpr&>(expr).value, 0, 0,
             expr.location);
        return;
      case ExprKind::FloatLit:
        emit(Op::PushFloat, 0,
             intern_float(static_cast<FloatLitExpr&>(expr).value), 0,
             expr.location);
        return;
      case ExprKind::BoolLit:
        emit(Op::PushBool, static_cast<BoolLitExpr&>(expr).value ? 1 : 0, 0, 0,
             expr.location);
        return;
      case ExprKind::StringLit:
        emit(Op::PushString, 0,
             intern_str(static_cast<StringLitExpr&>(expr).value), 0,
             expr.location);
        return;
      case ExprKind::QuantumIntLit:
        emit(Op::QuintLit, static_cast<QuantumIntLitExpr&>(expr).value, 0, 0,
             expr.location);
        return;
      case ExprKind::QuantumStringLit:
        emit(Op::QustringLit, 0,
             intern_str(static_cast<QuantumStringLitExpr&>(expr).bits), 0,
             expr.location);
        return;
      case ExprKind::KetLit:
        emit(Op::KetState,
             static_cast<std::int64_t>(static_cast<KetLitExpr&>(expr).kind), 0,
             0, expr.location);
        return;
      case ExprKind::ArrayLit: {
        auto& lit = static_cast<ArrayLitExpr&>(expr);
        const Op begin = lit.superposition ? Op::SupBegin : Op::ArrBegin;
        const Op elem = lit.superposition ? Op::SupElem : Op::ArrElem;
        const Op end = lit.superposition ? Op::SupEnd : Op::ArrEnd;
        emit(begin, 0, 0, 0, expr.location);
        for (const ExprPtr& element : lit.elements) {
          lower_expr(*element);
          emit(elem, 0, 0, 0, expr.location);
        }
        emit(end, 0, 0, 0, expr.location);
        return;
      }
      case ExprKind::VarRef: {
        const std::string& name = static_cast<VarRefExpr&>(expr).name;
        const Resolved r = resolve(name);
        switch (r.where) {
          case Resolved::Where::Local:
            emit(Op::LoadLocal, 0, r.slot, 0, expr.location);
            return;
          case Resolved::Where::Global:
            emit(Op::LoadGlobal, 0, r.slot, 0, expr.location);
            return;
          case Resolved::Where::Missing:
            emit(Op::ThrowUseUndeclared, 0, intern_str(name), 0, expr.location);
            return;
        }
        return;
      }
      case ExprKind::Index: {
        auto& idx = static_cast<IndexExpr&>(expr);
        lower_expr(*idx.target);
        lower_expr(*idx.index);
        emit(Op::IndexGet, 0, 0, 0, expr.location);
        return;
      }
      case ExprKind::Call: {
        auto& call = static_cast<CallExpr&>(expr);
        for (const ExprPtr& arg : call.args) lower_expr(*arg);
        const auto argc = static_cast<std::int64_t>(call.args.size());
        if (is_builtin(call.callee)) {
          emit(Op::CallBuiltin, argc, intern_str(call.callee), 0, expr.location);
          return;
        }
        if (const std::uint32_t* target = chunk_of(call.callee)) {
          emit(Op::CallUser, argc, *target, 0, expr.location);
          return;
        }
        // Unknown callee: the reference evaluates the arguments first, then
        // throws — so must we (the args just ran above).
        emit(Op::ThrowUnknownFunction, 0, intern_str(call.callee), 0,
             expr.location);
        return;
      }
      case ExprKind::Unary: {
        if (const auto v = fold(expr, depth_ - 1)) {
          emit_const(*v, expr.location);
          return;
        }
        auto& un = static_cast<UnaryExpr&>(expr);
        lower_expr(*un.operand);
        emit(Op::UnaryApply, static_cast<std::int64_t>(un.op), 0, 0,
             expr.location);
        return;
      }
      case ExprKind::Binary: {
        if (const auto v = fold(expr, depth_ - 1)) {
          emit_const(*v, expr.location);
          return;
        }
        auto& bin = static_cast<BinaryExpr&>(expr);
        if (bin.op == BinaryOp::And || bin.op == BinaryOp::Or) {
          lower_expr(*bin.lhs);
          emit(Op::ToBool, 0, 0, 0, expr.location);
          const Op skip = bin.op == BinaryOp::And ? Op::JumpIfFalsePeek
                                                  : Op::JumpIfTruePeek;
          const std::uint32_t jump = emit(skip, kNoPc, 0, 0, expr.location);
          emit(Op::Pop, 0, 0, 0, expr.location);
          lower_expr(*bin.rhs);
          emit(Op::ToBool, 0, 0, 0, expr.location);
          patch(jump, here());
          return;
        }
        lower_expr(*bin.lhs);
        lower_expr(*bin.rhs);
        emit(Op::BinaryApply, static_cast<std::int64_t>(bin.op), 0, 0,
             expr.location);
        return;
      }
    }
    throw LangError("internal: unknown expression node", expr.location);
  }

  // ---- statements -----------------------------------------------------------

  void lower_stmt(Stmt& stmt) {
    // Static statement-nesting guard: belt over the parser's own nesting
    // limit, same spirit as the expression-depth guard above.
    if (stmt_depth_ >= kMaxEvalDepth) {
      throw LangError("statement nesting too deep to lower (depth limit " +
                          std::to_string(kMaxEvalDepth) + ")",
                      stmt.location);
    }
    ++stmt_depth_;
    struct DepthGuard {
      std::size_t& depth;
      ~DepthGuard() { --depth; }
    } guard{stmt_depth_};
    stmt.accept(*this);
  }

  void visit(VarDeclStmt& stmt) override {
    const std::uint32_t slot = declare_slot(stmt.name);
    const std::uint32_t type = intern_type(stmt.type);
    if (!stmt.init) {
      emit(Op::DeclareDefault, 0, slot, type, stmt.location);
      return;
    }
    // Quantum declarations with literal initializers build their register
    // directly at the declared width/name (tree-walk fast path).
    if (stmt.type.kind == TypeKind::Quint || stmt.type.kind == TypeKind::Qubit ||
        stmt.type.kind == TypeKind::Qustring) {
      Expr& init = *stmt.init;
      switch (kind_of(init)) {
        case ExprKind::QuantumIntLit:
          emit(Op::DeclarePromoteInt, static_cast<QuantumIntLitExpr&>(init).value,
               slot, type, stmt.location);
          return;
        case ExprKind::IntLit:
          emit(Op::DeclarePromoteInt, static_cast<IntLitExpr&>(init).value, slot,
               type, stmt.location);
          return;
        case ExprKind::QuantumStringLit:
          emit(Op::DeclarePromoteString,
               static_cast<std::int64_t>(
                   intern_str(static_cast<QuantumStringLitExpr&>(init).bits)),
               slot, type, stmt.location);
          return;
        default:
          break;
      }
    }
    emit(Op::Declare, 0, slot, type, stmt.location);
    lower_expr(*stmt.init);
    emit(Op::BindInit, 0, slot, type, stmt.location);
  }

  void visit(AssignStmt& stmt) override {
    const ExprKind target = kind_of(*stmt.lvalue);
    if (target == ExprKind::VarRef) {
      auto* ref = static_cast<VarRefExpr*>(stmt.lvalue.get());
      const Resolved r = resolve(ref->name);
      if (r.where == Resolved::Where::Missing) {
        // The reference resolves the target before evaluating the rhs, so
        // the rhs is never lowered (and its static guards never fire).
        emit(Op::ThrowAssignUndeclared, 0, intern_str(ref->name), 0,
             ref->location);
        return;
      }
      const bool global = r.where == Resolved::Where::Global;
      emit(global ? Op::CheckGlobal : Op::CheckLocal, 0, r.slot, 0,
           ref->location);
      lower_expr(*stmt.value);
      if (stmt.compound) {
        emit(global ? Op::CompoundGlobal : Op::CompoundLocal,
             static_cast<std::int64_t>(*stmt.compound), r.slot, 0,
             stmt.location);
      } else {
        emit(global ? Op::AssignGlobal : Op::AssignLocal, 0, r.slot, 0,
             stmt.location);
      }
      return;
    }
    if (target == ExprKind::Index) {
      auto* idx = static_cast<IndexExpr*>(stmt.lvalue.get());
      lower_expr(*idx->target);
      emit(Op::CheckIndexTarget, 0, 0, 0, idx->location);
      lower_expr(*idx->index);
      emit(Op::IndexPrep, 0, 0, 0, idx->location);
      lower_expr(*stmt.value);
      if (stmt.compound) {
        emit(Op::CompoundIndex, static_cast<std::int64_t>(*stmt.compound), 0, 0,
             stmt.location);
      } else {
        emit(Op::AssignIndex, 0, 0, 0, stmt.location);
      }
      return;
    }
    throw LangError("invalid assignment target", stmt.lvalue->location);
  }

  void visit(ExprStmt& stmt) override {
    lower_expr(*stmt.expr);
    emit(Op::Pop, 0, 0, 0, stmt.location);
  }

  void visit(BlockStmt& stmt) override {
    scopes_.emplace_back();
    for (const StmtPtr& child : stmt.statements) lower_stmt(*child);
    close_scope(stmt.location);
  }

  void visit(IfStmt& stmt) override {
    // Dead-branch elimination on a statically-known condition. The
    // eliminated branch's declarations never enter the scope map — the
    // reference never executes them either, so later references resolve
    // (or fail) identically.
    if (const auto cv = fold(*stmt.condition, 0)) {
      if (const auto cond = const_condition(*cv)) {
        if (*cond) {
          lower_stmt(*stmt.then_branch);
        } else if (stmt.else_branch) {
          lower_stmt(*stmt.else_branch);
        }
        return;
      }
    }
    lower_expr(*stmt.condition);
    const std::uint32_t to_else =
        emit(Op::JumpIfFalse, kNoPc, 0, 0, stmt.location);
    lower_stmt(*stmt.then_branch);
    if (stmt.else_branch) {
      const std::uint32_t to_end = emit(Op::Jump, kNoPc, 0, 0, stmt.location);
      patch(to_else, here());
      lower_stmt(*stmt.else_branch);
      patch(to_end, here());
    } else {
      patch(to_else, here());
    }
  }

  void visit(WhileStmt& stmt) override {
    if (const auto cv = fold(*stmt.condition, 0)) {
      if (const auto cond = const_condition(*cv)) {
        if (!*cond) return;  // `while (false)`: never runs, nothing to emit
        // `while (true)`: no conditional exit; the iteration budget still
        // applies, so the reference's budget error surfaces identically.
        const std::uint32_t counter = chunk_->num_loops++;
        emit(Op::LoopReset, 0, counter, 0, stmt.location);
        const std::uint32_t top = here();
        lower_stmt(*stmt.body);
        emit(Op::LoopBump, 0, counter, 0, stmt.location);
        emit(Op::Jump, top, 0, 0, stmt.location);
        return;
      }
    }
    const std::uint32_t counter = chunk_->num_loops++;
    emit(Op::LoopReset, 0, counter, 0, stmt.location);
    const std::uint32_t top = here();
    lower_expr(*stmt.condition);
    const std::uint32_t exit = emit(Op::JumpIfFalse, kNoPc, 0, 0, stmt.location);
    lower_stmt(*stmt.body);
    emit(Op::LoopBump, 0, counter, 0, stmt.location);
    emit(Op::Jump, top, 0, 0, stmt.location);
    patch(exit, here());
  }

  void visit(ForeachStmt& stmt) override {
    const std::uint32_t iter = chunk_->num_iters++;
    lower_expr(*stmt.iterable);
    emit(Op::ForeachInit, 0, iter, 0, stmt.location);
    // Per-iteration scope holding the loop variable; a non-block body
    // declares into this same scope (exactly the tree-walk's layout, which
    // is what makes `foreach x in a int x = 1;` redeclare).
    scopes_.emplace_back();
    const std::uint32_t var_slot = declare_slot(stmt.var_name);
    const std::uint32_t top = here();
    const std::uint32_t next =
        emit(Op::ForeachNext, kNoPc, iter, var_slot, stmt.location);
    lower_stmt(*stmt.body);
    close_scope(stmt.location);
    emit(Op::Jump, top, 0, 0, stmt.location);
    patch(next, here());
  }

  void visit(FuncDeclStmt&) override {
    // Registered in pass 1; lowered as its own chunk.
  }

  void visit(ReturnStmt& stmt) override {
    if (stmt.value) {
      lower_expr(*stmt.value);
      emit(Op::Return, 1, 0, 0, stmt.location);
    } else {
      emit(Op::Return, 0, 0, 0, stmt.location);
    }
  }

  void visit(PrintStmt& stmt) override {
    lower_expr(*stmt.value);
    emit(Op::Print, 0, 0, 0, stmt.location);
  }

  void visit(BarrierStmt& stmt) override {
    emit(Op::Barrier, 0, 0, 0, stmt.location);
  }

  void visit(GateStmt& stmt) override {
    // Evaluate-then-apply per operand, interleaved like the reference.
    for (const ExprPtr& operand : stmt.operands) {
      lower_expr(*operand);
      emit(Op::GateApply, static_cast<std::int64_t>(stmt.gate), 0, 0,
           stmt.location);
    }
  }

  /// Pop the current lexical scope, emitting a ScopeExit when it declared
  /// anything (re-entering the region must find the slots undeclared).
  void close_scope(SourceLocation loc) {
    ScopeInfo scope = std::move(scopes_.back());
    scopes_.pop_back();
    if (!scope.slots.empty()) {
      const auto idx = static_cast<std::uint32_t>(chunk_->scopes.size());
      chunk_->scopes.push_back(std::move(scope.slots));
      emit(Op::ScopeExit, 0, idx, 0, loc);
    }
  }

  Bytecode bc_;
  const FunctionTable& functions_;
  const LoweredLibrary* linked_;  ///< null when lowering in full
  std::unordered_map<std::string, std::uint32_t> chunk_index_;
  std::unordered_map<std::string, std::uint32_t> str_pool_;
  std::unordered_map<std::uint64_t, std::uint32_t> loc_pool_;

  Chunk* chunk_ = nullptr;
  std::vector<ScopeInfo> scopes_;
  std::unordered_map<std::string, std::uint32_t> global_names_;
  bool in_function_ = false;
  std::size_t depth_ = 0;
  std::size_t stmt_depth_ = 0;
  /// Operator nodes fold declined, with the least depth it declined at.
  std::unordered_map<const Expr*, std::size_t> declined_at_;
};

/// The stdlib image's lowered state when `functions` holds the image's own
/// stdlib declarations; null for a table without the stdlib (which never
/// builds the image) or with a separately parsed one.
const LoweredLibrary* linked_stdlib(const FunctionTable& functions) {
  if (functions.lookup(stdlib_function_names().front()) == nullptr)
    return nullptr;
  const StdlibImage& image = stdlib_image();
  for (const auto& [name, fn] : image.functions.items()) {
    if (functions.lookup(name) != fn) return nullptr;
  }
  return &image.lowered;
}

}  // namespace

Bytecode lower(Program& program, const FunctionTable& functions,
               std::uint64_t source_hash) {
  obs::Span span("lang.lower");
  Lowerer lowerer(functions, source_hash, linked_stdlib(functions));
  Bytecode bc = lowerer.run(program).bytecode;
  obs::metrics()
      .counter(obs::names::kLangBytecodeOps)
      .add(static_cast<std::uint64_t>(bc.total_ops()));
  return bc;
}

LoweredLibrary lower_library(const FunctionTable& functions) {
  Program empty;
  return Lowerer(functions, 0, nullptr).run(empty);
}

}  // namespace qutes::lang
