// request_fast.hpp — the request parser of the serve protocol.
//
// The request schema is declared once, in request_fast.cpp: one constexpr
// row per field of every parameter block (wire name, member, and the
// field's check with its exact message).  Four walkers run over those
// rows — the parser, the canonical-key emitter, the dotted sweep-path
// lookup and `request_to_json` (request.hpp) — so adding or changing a
// field is one row.
//
// `parse_request_fast` walks an arena-backed `json::aview` document
// (json_arena.hpp) into a *reused* `request` (string members keep their
// capacity, the payload variant keeps its alternative when the op
// repeats) and emits the canonical cache key directly into a reused
// buffer, with each block's member order and `,"name":` fragments fixed
// at compile time — no DOM, no sort, no temporaries, so a warm parse
// allocates nothing.  It is the only schema walker: the engine's serving
// path parses every line through it, and `parse_request` (request.hpp)
// is a thin adapter over it for callers that already hold a
// `json::value`.
//
// `numeric_param_exists` / `numeric_param_ptr` / `set_numeric_param`
// resolve dotted paths through the same rows; the engine's sweep
// evaluation writes each grid point through them into a typed copy of
// the target request.

#pragma once

#include "serve/json_arena.hpp"
#include "serve/request.hpp"

#include <string>
#include <string_view>

namespace silicon::serve {

/// Reusable parse storage; keep one per thread (the engine embeds it in
/// its thread-local line state).
struct fast_parse_state {
    /// Parsed result: op, payload, has_id and canonical_key are filled.
    /// `id` is NOT copied into `req.id` (that would allocate) — the raw
    /// view is left in `id_view` for the caller to serialize directly.
    request req;
    const json::aview* id_view = nullptr;
    /// Like `id_view`: `req.trace_id` is NOT assigned (that could
    /// allocate) — the envelope echo serializes this view.  Non-null iff
    /// `req.has_trace`.
    const json::aview* trace_view = nullptr;

    /// Sweep scratch: the parsed target and its canonical key.  A parsed
    /// sweep carries no evaluable payload (`sweep_request::target` stays
    /// null) until `bind_sweep_target` builds it, so a warm sweep hit
    /// never does.
    request target_req;
    std::string target_key;
};

/// Parse and validate one arena-view document into `st` (in place,
/// allocation-free once warm).  Throws request_error on any schema
/// violation; leaves `st` in an unspecified (but reusable) state on
/// throw.
void parse_request_fast(const json::aview& doc, fast_parse_state& st);

/// Gives the sweep parsed into `st.req` its evaluable target: `target`,
/// a copy of `st.target_req` keyed by `st.target_key`.  Allocates.
void bind_sweep_target(fast_parse_state& st);

/// Appends the canonical cache key of a fully-parsed request (a sweep
/// must carry its bound `target`).
void canonical_key_into(const request& r, std::string& out);

/// True when dotted `path` addresses a numeric parameter of `r`'s
/// canonical serialization (integer-typed parameters included).
[[nodiscard]] bool numeric_param_exists(const request& r,
                                        std::string_view path);

/// Pointer to the double member of `r` addressed by `path`; nullptr when
/// the path is invalid or addresses an integer-typed parameter.
[[nodiscard]] double* numeric_param_ptr(request& r, std::string_view path);

/// Sets the numeric parameter `path` of `r` to the grid value `x`, as the
/// point request carrying that number would hold it.  Returns the value
/// the canonical key then spells (`x`, or the integer it converts to), or
/// NaN — `r` unchanged — when that point request would fail schema
/// validation: `x` is not finite, or an integer-valued parameter's
/// integral/range check (the parser's own) rejects it.
[[nodiscard]] double set_numeric_param(request& r, std::string_view path,
                                       double x);

}  // namespace silicon::serve
