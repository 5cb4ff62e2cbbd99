// Content-addressed cache keys for compiled Qutes programs.
//
// The `.qbc` artifact loader (lang/bytecode.hpp) introduced the fnv1a64
// source hash; the qutesd compile cache needs the same idea one level up:
// a single 64-bit key identifying *(source text, canonical run config)*, so
// that a request whose key matches a cached entry can skip lex/parse/lower
// and the compilation pipeline entirely. This header owns both pieces:
//
//  * fnv1a64      — the FNV-1a 64-bit content hash (moved here from the
//    bytecode module; lang::fnv1a64 forwards for compatibility).
//  * canonical_run_config — a stable, human-readable canonical form of the
//    RunConfig fields that change what a compiled entry *is* or what a
//    request on it returns. Deliberately excluded: the seed (the whole point
//    of the per-shot Rng(seed, shot) streams is that one compiled entry
//    serves every seed), `record_memory` (response shape, not compiled
//    content), `bind_params`/`allow_unbound_params` (a cached entry is the *unbound*
//    artifact; every parameter binding replays against it, so values must
//    never cause a miss), and the echo/debug-trace/replay plumbing (per-call
//    I/O, not program identity).
//  * cache_key    — fnv1a64 over source + '\0' + canonical_run_config.
//
// Lives in qutes::common (not lang or service) so the language artifact
// cache, the service, tests, and benches all share one definition.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "qutes/run_config.hpp"

namespace qutes {

/// FNV-1a 64-bit content hash. The `.qbc` artifact's `source_hash` and the
/// service cache key are both built from this.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data) noexcept;

/// Canonical textual form of the config fields that distinguish cache
/// entries: pipeline preset (the preset *name* — RunConfig holds a
/// PassManager pointer, which has no stable identity across processes, so
/// the caller passes the name that built it; "" = no pipeline), backend
/// name and its tuning (bond dim, truncation threshold, fusion width),
/// exec mode, shots, stdlib inclusion, and the noise model. Two configs
/// canonicalize equal iff a compiled entry plus its sampled counts are
/// interchangeable between them (for any seed).
[[nodiscard]] std::string canonical_run_config(const RunConfig& config,
                                               std::string_view pipeline_preset);

/// The service cache key: fnv1a64 over `source` + '\0' +
/// canonical_run_config(config, pipeline_preset). Byte-identical sources
/// under equal canonical configs collide (that is the cache hit); any
/// difference in source bytes — including whitespace — or in a canonical
/// field keys distinctly. The seed never participates.
[[nodiscard]] std::uint64_t cache_key(std::string_view source,
                                      const RunConfig& config,
                                      std::string_view pipeline_preset = "");

}  // namespace qutes
