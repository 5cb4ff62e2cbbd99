#include "qutes/service/protocol.hpp"

#include "qutes/circuit/pass_manager.hpp"

namespace qutes::service {

namespace {

constexpr std::size_t kMaxSourceBytes = 4u << 20;  // defensive request cap

bool known_op(const std::string& op) {
  return op == "run" || op == "trace" || op == "ping" || op == "stats" ||
         op == "shutdown";
}

}  // namespace

Request parse_request(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) throw ServiceError("request must be a JSON object");
  Request req;
  if (doc.has("op")) req.op = doc.get("op").as_string();
  if (!known_op(req.op)) throw ServiceError("unknown op \"" + req.op + "\"");
  req.id = doc.get("id").as_string();
  req.source = doc.get("source").as_string();
  if (req.source.size() > kMaxSourceBytes) {
    throw ServiceError("source exceeds " + std::to_string(kMaxSourceBytes) +
                       " bytes");
  }
  if ((req.op == "run" || req.op == "trace") && req.source.empty()) {
    throw ServiceError("op \"" + req.op + "\" requires a non-empty source");
  }
  req.shots = static_cast<std::size_t>(doc.get("shots").as_uint(req.shots));
  req.seed = doc.get("seed").as_uint(req.seed);
  if (doc.has("backend")) req.backend = doc.get("backend").as_string();
  req.pipeline = doc.get("pipeline").as_string();
  if (!req.pipeline.empty() && !circ::parse_preset(req.pipeline)) {
    throw ServiceError("unknown pipeline preset \"" + req.pipeline +
                       "\" (expected " + circ::preset_choices() + ")");
  }
  if (doc.has("exec")) req.exec = doc.get("exec").as_string();
  if (req.exec != "vm" && req.exec != "ast") {
    // "default" would make cached artifacts depend on the daemon's
    // environment (QUTES_EXEC_MODE); the protocol pins the engine instead.
    throw ServiceError("exec must be \"vm\" or \"ast\"");
  }
  req.include_stdlib = doc.get("stdlib").as_bool(req.include_stdlib);
  req.record_memory = doc.get("memory").as_bool(req.record_memory);
  for (const Json& v : doc.get("params").as_array()) {
    if (!v.is_number()) throw ServiceError("params must be an array of numbers");
    req.params.push_back(v.as_double());
  }
  return req;
}

std::string serialize_request(const Request& request) {
  JsonObject obj;
  obj["op"] = request.op;
  if (!request.id.empty()) obj["id"] = request.id;
  if (!request.source.empty()) obj["source"] = request.source;
  obj["shots"] = static_cast<std::uint64_t>(request.shots);
  obj["seed"] = request.seed;
  obj["backend"] = request.backend;
  if (!request.pipeline.empty()) obj["pipeline"] = request.pipeline;
  obj["exec"] = request.exec;
  obj["stdlib"] = request.include_stdlib;
  if (request.record_memory) obj["memory"] = true;
  if (!request.params.empty()) {
    JsonArray params;
    params.reserve(request.params.size());
    for (const double v : request.params) params.emplace_back(v);
    obj["params"] = std::move(params);
  }
  return Json(std::move(obj)).dump();
}

Response parse_response(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) throw ServiceError("response must be a JSON object");
  Response resp;
  resp.ok = doc.get("ok").as_bool(false);
  resp.id = doc.get("id").as_string();
  resp.error = doc.get("error").as_string();
  resp.cache = doc.get("cache").as_string();
  resp.backend = doc.get("backend").as_string();
  for (const auto& [bits, count] : doc.get("counts").as_object()) {
    resp.counts[bits] = count.as_uint();
  }
  for (const Json& shot : doc.get("memory").as_array()) {
    resp.memory.push_back(shot.as_string());
  }
  resp.output = doc.get("output").as_string();
  resp.elapsed_ms = doc.get("elapsed_ms").as_double();
  resp.stats = doc.get("stats").as_object();
  return resp;
}

std::string serialize_response(const Response& response) {
  JsonObject obj;
  obj["ok"] = response.ok;
  if (!response.id.empty()) obj["id"] = response.id;
  if (!response.error.empty()) obj["error"] = response.error;
  if (!response.cache.empty()) obj["cache"] = response.cache;
  if (!response.backend.empty()) obj["backend"] = response.backend;
  if (!response.counts.empty()) {
    JsonObject counts;
    for (const auto& [bits, count] : response.counts) counts[bits] = count;
    obj["counts"] = std::move(counts);
  }
  if (!response.memory.empty()) {
    JsonArray memory;
    memory.reserve(response.memory.size());
    for (const std::string& shot : response.memory) memory.emplace_back(shot);
    obj["memory"] = std::move(memory);
  }
  if (!response.output.empty()) obj["output"] = response.output;
  obj["elapsed_ms"] = response.elapsed_ms;
  if (!response.stats.empty()) obj["stats"] = response.stats;
  return Json(std::move(obj)).dump();
}

RunConfig request_config(const Request& request) {
  RunConfig config;
  config.shots = request.shots;
  config.seed = request.seed;
  config.record_memory = request.record_memory;
  config.include_stdlib = request.include_stdlib;
  config.exec_mode = request.exec == "ast" ? ExecMode::Ast : ExecMode::Vm;
  config.backend.name = request.backend;
  config.bind_params = request.params;
  return config;
}

Response error_response(const std::string& id, const std::string& message) {
  Response resp;
  resp.ok = false;
  resp.id = id;
  resp.error = message;
  return resp;
}

}  // namespace qutes::service
