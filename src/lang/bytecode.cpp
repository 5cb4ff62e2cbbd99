#include "qutes/lang/bytecode.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "qutes/lang/ast.hpp"

namespace qutes::lang {
namespace {

constexpr char kMagic[4] = {'Q', 'B', 'C', '\n'};

/// Upper bound on any serialized section count. Guards the loader against
/// multi-gigabyte allocations driven by a corrupt length field; generated
/// programs sit orders of magnitude below this.
constexpr std::uint64_t kMaxSectionCount = 1u << 24;

[[noreturn]] void corrupt(const std::string& what) {
  throw LangError("bytecode: " + what, {});
}

// ---- little-endian writer ---------------------------------------------------

struct Writer {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof raw);
    u64(raw);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
};

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (size - pos < n) corrupt("truncated artifact");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t raw = u64();
    double v = 0;
    std::memcpy(&v, &raw, sizeof v);
    return v;
  }
  std::uint64_t count() {
    const std::uint64_t n = u64();
    if (n > kMaxSectionCount) corrupt("implausible section size");
    return n;
  }
  std::string str() {
    const std::uint64_t n = count();
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

// ---- per-op operand classification (validation + disassembly) ---------------

enum class AKind { None, Imm, Jump, Enum, Argc, Flag };
enum class BKind { None, Slot, Str, FloatPool, Loop, Iter, Scope, Chunk };
enum class CKind { None, Slot, Type };

struct OpSpec {
  AKind a = AKind::None;
  BKind b = BKind::None;
  CKind c = CKind::None;
  std::int64_t enum_max = 0;  ///< inclusive, when a is Enum
};

OpSpec op_spec(Op op) {
  constexpr auto kBinaryMax = static_cast<std::int64_t>(BinaryOp::In);
  constexpr auto kUnaryMax = static_cast<std::int64_t>(UnaryOp::BitNot);
  constexpr auto kKetMax = static_cast<std::int64_t>(KetKind::Minus);
  constexpr auto kGateMax = static_cast<std::int64_t>(GateKind::ResetStmt);
  switch (op) {
    case Op::PushInt: return {AKind::Imm, BKind::None, CKind::None};
    case Op::PushFloat: return {AKind::None, BKind::FloatPool, CKind::None};
    case Op::PushBool: return {AKind::Flag, BKind::None, CKind::None};
    case Op::PushString: return {AKind::None, BKind::Str, CKind::None};
    case Op::Pop: return {};
    case Op::QuintLit: return {AKind::Imm, BKind::None, CKind::None};
    case Op::QustringLit: return {AKind::None, BKind::Str, CKind::None};
    case Op::KetState: return {AKind::Enum, BKind::None, CKind::None, kKetMax};
    case Op::SupBegin:
    case Op::SupElem:
    case Op::SupEnd:
    case Op::ArrBegin:
    case Op::ArrElem:
    case Op::ArrEnd: return {};
    case Op::LoadLocal:
    case Op::LoadGlobal:
    case Op::CheckLocal:
    case Op::CheckGlobal:
    case Op::AssignLocal:
    case Op::AssignGlobal: return {AKind::None, BKind::Slot, CKind::None};
    case Op::CompoundLocal:
    case Op::CompoundGlobal:
      return {AKind::Enum, BKind::Slot, CKind::None, kBinaryMax};
    case Op::CheckIndexTarget:
    case Op::IndexPrep:
    case Op::AssignIndex:
    case Op::IndexGet: return {};
    case Op::CompoundIndex: return {AKind::Enum, BKind::None, CKind::None, kBinaryMax};
    case Op::Declare:
    case Op::BindInit:
    case Op::DeclareDefault: return {AKind::None, BKind::Slot, CKind::Type};
    case Op::DeclarePromoteInt: return {AKind::Imm, BKind::Slot, CKind::Type};
    case Op::DeclarePromoteString: return {AKind::Imm, BKind::Slot, CKind::Type};
    case Op::ScopeExit: return {AKind::None, BKind::Scope, CKind::None};
    case Op::UnaryApply: return {AKind::Enum, BKind::None, CKind::None, kUnaryMax};
    case Op::BinaryApply: return {AKind::Enum, BKind::None, CKind::None, kBinaryMax};
    case Op::ToBool: return {};
    case Op::Jump:
    case Op::JumpIfFalse:
    case Op::JumpIfFalsePeek:
    case Op::JumpIfTruePeek: return {AKind::Jump, BKind::None, CKind::None};
    case Op::LoopReset:
    case Op::LoopBump: return {AKind::None, BKind::Loop, CKind::None};
    case Op::ForeachInit: return {AKind::None, BKind::Iter, CKind::None};
    case Op::ForeachNext: return {AKind::Jump, BKind::Iter, CKind::Slot};
    case Op::CallBuiltin: return {AKind::Argc, BKind::Str, CKind::None};
    case Op::CallUser: return {AKind::Argc, BKind::Chunk, CKind::None};
    case Op::Return: return {AKind::Flag, BKind::None, CKind::None};
    case Op::Print:
    case Op::Barrier: return {};
    case Op::GateApply: return {AKind::Enum, BKind::None, CKind::None, kGateMax};
    case Op::ThrowUseUndeclared:
    case Op::ThrowAssignUndeclared:
    case Op::ThrowUnknownFunction: return {AKind::None, BKind::Str, CKind::None};
  }
  corrupt("unknown opcode");
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::PushInt: return "push_int";
    case Op::PushFloat: return "push_float";
    case Op::PushBool: return "push_bool";
    case Op::PushString: return "push_string";
    case Op::Pop: return "pop";
    case Op::QuintLit: return "quint_lit";
    case Op::QustringLit: return "qustring_lit";
    case Op::KetState: return "ket_state";
    case Op::SupBegin: return "sup_begin";
    case Op::SupElem: return "sup_elem";
    case Op::SupEnd: return "sup_end";
    case Op::ArrBegin: return "arr_begin";
    case Op::ArrElem: return "arr_elem";
    case Op::ArrEnd: return "arr_end";
    case Op::LoadLocal: return "load_local";
    case Op::LoadGlobal: return "load_global";
    case Op::CheckLocal: return "check_local";
    case Op::CheckGlobal: return "check_global";
    case Op::AssignLocal: return "assign_local";
    case Op::AssignGlobal: return "assign_global";
    case Op::CompoundLocal: return "compound_local";
    case Op::CompoundGlobal: return "compound_global";
    case Op::CheckIndexTarget: return "check_index_target";
    case Op::IndexPrep: return "index_prep";
    case Op::AssignIndex: return "assign_index";
    case Op::CompoundIndex: return "compound_index";
    case Op::IndexGet: return "index_get";
    case Op::Declare: return "declare";
    case Op::BindInit: return "bind_init";
    case Op::DeclareDefault: return "declare_default";
    case Op::DeclarePromoteInt: return "declare_promote_int";
    case Op::DeclarePromoteString: return "declare_promote_string";
    case Op::ScopeExit: return "scope_exit";
    case Op::UnaryApply: return "unary";
    case Op::BinaryApply: return "binary";
    case Op::ToBool: return "to_bool";
    case Op::Jump: return "jump";
    case Op::JumpIfFalse: return "jump_if_false";
    case Op::JumpIfFalsePeek: return "jump_if_false_peek";
    case Op::JumpIfTruePeek: return "jump_if_true_peek";
    case Op::LoopReset: return "loop_reset";
    case Op::LoopBump: return "loop_bump";
    case Op::ForeachInit: return "foreach_init";
    case Op::ForeachNext: return "foreach_next";
    case Op::CallBuiltin: return "call_builtin";
    case Op::CallUser: return "call_user";
    case Op::Return: return "return";
    case Op::Print: return "print";
    case Op::Barrier: return "barrier";
    case Op::GateApply: return "gate";
    case Op::ThrowUseUndeclared: return "throw_use_undeclared";
    case Op::ThrowAssignUndeclared: return "throw_assign_undeclared";
    case Op::ThrowUnknownFunction: return "throw_unknown_function";
  }
  return "?";
}

std::size_t Bytecode::total_ops() const {
  std::size_t n = 0;
  for (const Chunk& chunk : chunks) n += chunk.code.size();
  return n;
}

// ---- validation -------------------------------------------------------------

void Bytecode::validate(std::size_t checked_begin,
                        std::size_t checked_end) const {
  const auto str_ok = [&](std::uint32_t i) { return i < strings.size(); };
  const auto type_ok = [&](std::uint32_t i) { return i < types.size(); };
  if (chunks.empty()) corrupt("no chunks");
  if (locations.empty()) corrupt("empty location pool");
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    if (ci >= checked_begin && ci < checked_end) continue;
    const Chunk& chunk = chunks[ci];
    if (!str_ok(chunk.name) || !type_ok(chunk.return_type))
      corrupt("chunk header index out of range");
    if (chunk.slot_names.size() != chunk.num_slots)
      corrupt("slot name table size mismatch");
    for (const std::uint32_t name : chunk.slot_names)
      if (!str_ok(name)) corrupt("slot name index out of range");
    if (chunk.params.size() > chunk.num_slots)
      corrupt("more parameters than slots");
    for (const ParamInfo& p : chunk.params)
      if (!str_ok(p.name) || !type_ok(p.type))
        corrupt("parameter index out of range");
    if (chunk.duplicate_param && *chunk.duplicate_param >= chunk.params.size())
      corrupt("duplicate-param index out of range");
    for (const auto& scope : chunk.scopes)
      for (const std::uint32_t slot : scope)
        if (slot >= chunk.num_slots) corrupt("scope slot index out of range");

    const Chunk& global = chunks.front();
    for (const Instr& in : chunk.code) {
      if (static_cast<std::uint8_t>(in.op) >= kOpCount) corrupt("unknown opcode");
      if (in.loc >= locations.size()) corrupt("location index out of range");
      const OpSpec spec = op_spec(in.op);
      switch (spec.a) {
        case AKind::Jump:
          if (in.a < 0 || static_cast<std::size_t>(in.a) > chunk.code.size())
            corrupt("jump target out of range");
          break;
        case AKind::Enum:
          if (in.a < 0 || in.a > spec.enum_max) corrupt("enum operand out of range");
          break;
        case AKind::Argc:
          if (in.a < 0 || in.a > static_cast<std::int64_t>(kMaxSectionCount))
            corrupt("argument count out of range");
          break;
        case AKind::Flag:
          if (in.a != 0 && in.a != 1) corrupt("flag operand out of range");
          break;
        case AKind::Imm:
          // DeclarePromoteString's immediate is a string pool index.
          if (in.op == Op::DeclarePromoteString &&
              (in.a < 0 || !str_ok(static_cast<std::uint32_t>(in.a))))
            corrupt("string index out of range");
          break;
        case AKind::None:
          break;
      }
      switch (spec.b) {
        case BKind::Slot: {
          // The *Global ops index the top-level chunk's frame.
          const bool global_slot = in.op == Op::LoadGlobal ||
                                   in.op == Op::CheckGlobal ||
                                   in.op == Op::AssignGlobal ||
                                   in.op == Op::CompoundGlobal;
          const std::uint32_t limit =
              global_slot ? global.num_slots : chunk.num_slots;
          if (in.b >= limit) corrupt("slot index out of range");
          break;
        }
        case BKind::Str:
          if (!str_ok(in.b)) corrupt("string index out of range");
          break;
        case BKind::FloatPool:
          if (in.b >= floats.size()) corrupt("float index out of range");
          break;
        case BKind::Loop:
          if (in.b >= chunk.num_loops) corrupt("loop counter out of range");
          break;
        case BKind::Iter:
          if (in.b >= chunk.num_iters) corrupt("iterator index out of range");
          break;
        case BKind::Scope:
          if (in.b >= chunk.scopes.size()) corrupt("scope index out of range");
          break;
        case BKind::Chunk:
          if (in.b >= chunks.size()) corrupt("chunk index out of range");
          break;
        case BKind::None:
          break;
      }
      switch (spec.c) {
        case CKind::Slot:
          if (in.c >= chunk.num_slots) corrupt("slot index out of range");
          break;
        case CKind::Type:
          if (!type_ok(in.c)) corrupt("type index out of range");
          break;
        case CKind::None:
          break;
      }
    }
  }
}

// ---- serialization ----------------------------------------------------------

std::vector<std::uint8_t> Bytecode::serialize() const {
  Writer w;
  w.bytes.insert(w.bytes.end(), kMagic, kMagic + 4);
  w.u32(kVersion);
  w.u64(source_hash);

  w.u64(strings.size());
  for (const std::string& s : strings) w.str(s);
  w.u64(floats.size());
  for (const double f : floats) w.f64(f);
  w.u64(types.size());
  for (const QType& t : types) {
    w.u8(static_cast<std::uint8_t>(t.kind));
    w.u8(static_cast<std::uint8_t>(t.element));
    w.u64(t.quint_width);
  }
  w.u64(locations.size());
  for (const SourceLocation& loc : locations) {
    w.u64(loc.line);
    w.u64(loc.column);
  }

  w.u64(chunks.size());
  for (const Chunk& chunk : chunks) {
    w.u32(chunk.name);
    w.u32(chunk.return_type);
    w.u64(chunk.params.size());
    for (const ParamInfo& p : chunk.params) {
      w.u32(p.name);
      w.u32(p.type);
    }
    w.u32(chunk.num_slots);
    for (const std::uint32_t name : chunk.slot_names) w.u32(name);
    w.u32(chunk.num_loops);
    w.u32(chunk.num_iters);
    w.u8(chunk.duplicate_param ? 1 : 0);
    if (chunk.duplicate_param) w.u32(*chunk.duplicate_param);
    w.u64(chunk.scopes.size());
    for (const auto& scope : chunk.scopes) {
      w.u64(scope.size());
      for (const std::uint32_t slot : scope) w.u32(slot);
    }
    w.u64(chunk.code.size());
    for (const Instr& in : chunk.code) {
      w.u8(static_cast<std::uint8_t>(in.op));
      w.i64(in.a);
      w.u32(in.b);
      w.u32(in.c);
      w.u32(in.loc);
    }
  }
  return w.bytes;
}

Bytecode Bytecode::deserialize(const std::uint8_t* data, std::size_t size) {
  Reader r{data, size};
  r.need(4);
  if (std::memcmp(r.data, kMagic, 4) != 0) corrupt("bad magic");
  r.pos = 4;
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    corrupt("unsupported artifact version " + std::to_string(version));

  Bytecode bc;
  bc.source_hash = r.u64();

  const std::uint64_t num_strings = r.count();
  bc.strings.reserve(num_strings);
  for (std::uint64_t i = 0; i < num_strings; ++i) bc.strings.push_back(r.str());
  const std::uint64_t num_floats = r.count();
  bc.floats.reserve(num_floats);
  for (std::uint64_t i = 0; i < num_floats; ++i) bc.floats.push_back(r.f64());
  const std::uint64_t num_types = r.count();
  constexpr auto kKindMax = static_cast<std::uint8_t>(TypeKind::Array);
  bc.types.reserve(num_types);
  for (std::uint64_t i = 0; i < num_types; ++i) {
    QType t;
    const std::uint8_t kind = r.u8();
    const std::uint8_t element = r.u8();
    if (kind > kKindMax || element > kKindMax) corrupt("type kind out of range");
    t.kind = static_cast<TypeKind>(kind);
    t.element = static_cast<TypeKind>(element);
    t.quint_width = static_cast<std::size_t>(r.u64());
    bc.types.push_back(t);
  }
  const std::uint64_t num_locs = r.count();
  bc.locations.reserve(num_locs);
  for (std::uint64_t i = 0; i < num_locs; ++i) {
    SourceLocation loc;
    loc.line = static_cast<std::size_t>(r.u64());
    loc.column = static_cast<std::size_t>(r.u64());
    bc.locations.push_back(loc);
  }

  const std::uint64_t num_chunks = r.count();
  bc.chunks.reserve(num_chunks);
  for (std::uint64_t i = 0; i < num_chunks; ++i) {
    Chunk chunk;
    chunk.name = r.u32();
    chunk.return_type = r.u32();
    const std::uint64_t num_params = r.count();
    chunk.params.reserve(num_params);
    for (std::uint64_t j = 0; j < num_params; ++j) {
      ParamInfo p;
      p.name = r.u32();
      p.type = r.u32();
      chunk.params.push_back(p);
    }
    chunk.num_slots = r.u32();
    if (chunk.num_slots > kMaxSectionCount) corrupt("implausible section size");
    chunk.slot_names.reserve(chunk.num_slots);
    for (std::uint32_t j = 0; j < chunk.num_slots; ++j)
      chunk.slot_names.push_back(r.u32());
    chunk.num_loops = r.u32();
    chunk.num_iters = r.u32();
    if (r.u8() != 0) chunk.duplicate_param = r.u32();
    const std::uint64_t num_scopes = r.count();
    chunk.scopes.reserve(num_scopes);
    for (std::uint64_t j = 0; j < num_scopes; ++j) {
      const std::uint64_t scope_size = r.count();
      std::vector<std::uint32_t> scope;
      scope.reserve(scope_size);
      for (std::uint64_t k = 0; k < scope_size; ++k) scope.push_back(r.u32());
      chunk.scopes.push_back(std::move(scope));
    }
    const std::uint64_t num_instrs = r.count();
    chunk.code.reserve(num_instrs);
    for (std::uint64_t j = 0; j < num_instrs; ++j) {
      Instr in;
      in.op = static_cast<Op>(r.u8());
      in.a = r.i64();
      in.b = r.u32();
      in.c = r.u32();
      in.loc = r.u32();
      chunk.code.push_back(in);
    }
    bc.chunks.push_back(std::move(chunk));
  }
  if (r.pos != r.size) corrupt("trailing bytes after artifact");
  bc.validate();
  return bc;
}

void Bytecode::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("failed writing bytecode to '" + path + "'");
}

Bytecode Bytecode::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) corrupt("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes.data(), bytes.size());
}

// ---- disassembler -----------------------------------------------------------

std::string Bytecode::disassemble() const {
  std::ostringstream out;
  out << "; qutes bytecode v" << kVersion << ", source hash " << std::hex
      << source_hash << std::dec << "\n";
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const Chunk& chunk = chunks[ci];
    const std::string& name = strings[chunk.name];
    out << "\nchunk " << ci << " <" << (name.empty() ? "main" : name) << ">";
    if (!chunk.params.empty()) {
      out << " (";
      for (std::size_t i = 0; i < chunk.params.size(); ++i) {
        if (i) out << ", ";
        out << types[chunk.params[i].type].to_string() << " "
            << strings[chunk.params[i].name];
      }
      out << ")";
    }
    out << "  ; slots=" << chunk.num_slots << " loops=" << chunk.num_loops
        << " iters=" << chunk.num_iters << "\n";
    for (std::size_t pc = 0; pc < chunk.code.size(); ++pc) {
      const Instr& in = chunk.code[pc];
      out << "  " << pc << "\t" << op_name(in.op);
      const OpSpec spec = op_spec(in.op);
      switch (spec.a) {
        case AKind::Imm:
          if (in.op == Op::DeclarePromoteString)
            out << " \"" << strings[static_cast<std::uint32_t>(in.a)] << "\"";
          else
            out << " " << in.a;
          break;
        case AKind::Jump: out << " ->" << in.a; break;
        case AKind::Enum: out << " #" << in.a; break;
        case AKind::Argc: out << " argc=" << in.a; break;
        case AKind::Flag: out << " " << in.a; break;
        case AKind::None: break;
      }
      switch (spec.b) {
        case BKind::Slot: {
          const bool global_slot = in.op == Op::LoadGlobal ||
                                   in.op == Op::CheckGlobal ||
                                   in.op == Op::AssignGlobal ||
                                   in.op == Op::CompoundGlobal;
          const Chunk& owner = global_slot ? chunks.front() : chunk;
          out << " slot=" << in.b << "(" << strings[owner.slot_names[in.b]] << ")";
          break;
        }
        case BKind::Str: out << " \"" << strings[in.b] << "\""; break;
        case BKind::FloatPool: out << " " << floats[in.b]; break;
        case BKind::Loop: out << " loop=" << in.b; break;
        case BKind::Iter: out << " iter=" << in.b; break;
        case BKind::Scope: out << " scope=" << in.b; break;
        case BKind::Chunk:
          out << " chunk=" << in.b << "<" << strings[chunks[in.b].name] << ">";
          break;
        case BKind::None: break;
      }
      switch (spec.c) {
        case CKind::Slot:
          out << " slot=" << in.c << "(" << strings[chunk.slot_names[in.c]] << ")";
          break;
        case CKind::Type: out << " : " << types[in.c].to_string(); break;
        case CKind::None: break;
      }
      if (locations[in.loc].valid())
        out << "\t; " << locations[in.loc].to_string();
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace qutes::lang
