#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace spam::lint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& rel) {
  return ends_with(rel, ".hpp") || ends_with(rel, ".h");
}

// The runtime layers living on top of the simulated clock: the only
// correct time read there is NodeCtx::now(), which folds unsettled debt.
bool in_runtime_scope(const std::string& rel) {
  static const std::array<const char*, 4> roots = {
      "src/am/", "src/mpi/", "src/splitc/", "src/apps/"};
  return std::any_of(roots.begin(), roots.end(),
                     [&](const char* r) { return starts_with(rel, r); });
}

// True when token i is qualified as `std::<tok>`.
bool std_qualified(const std::vector<Token>& toks, std::size_t i) {
  return i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
         toks[i - 3].text == "std";
}

// True when token i is a function call (next token is '(').
bool is_call(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() && toks[i + 1].text == "(";
}

// True when token i is a member access (`x.tok` or `x->tok` or `X::tok`).
bool is_member_access(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  const std::string& p = toks[i - 1].text;
  return p == "." || p == ">" || p == ":";
}

struct RuleContext {
  const LexedFile& file;
  std::vector<Violation>* out;
  // Appended to every message: the call-graph passes use it to say *why*
  // an unannotated function is being held to hot/det rules.
  std::string provenance;

  void report(const std::string& rule, int line, std::string msg) {
    // Inline suppression: `// spam-lint: allow(rule)` on this line or the
    // line above.
    const std::string marker = "allow(" + rule + ")";
    for (int l : {line, line - 1, line - 2}) {
      auto it = file.markers.find(l);
      if (it != file.markers.end() && it->second.count(marker) != 0) return;
    }
    out->push_back(Violation{rule, line, std::move(msg) + provenance, ""});
  }

  // Markers may sit on the same line or in a (possibly two-line) comment
  // directly above the audited statement.
  bool has_marker(int line, const std::string& m) const {
    for (int l : {line, line - 1, line - 2}) {
      auto it = file.markers.find(l);
      if (it != file.markers.end() && it->second.count(m) != 0) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// det-*: nondeterminism sources inside the simulation layers.
// ---------------------------------------------------------------------------

// Single-token determinism checks over [begin, end): shared between the
// whole-file pass and the call-graph's body pass.
void det_sites_scan(RuleContext& ctx, std::size_t begin, std::size_t end) {
  const auto& toks = ctx.file.tokens;

  static const std::unordered_set<std::string> wallclock_calls = {
      "time",        "clock",         "gettimeofday", "clock_gettime",
      "localtime",   "gmtime",        "timespec_get", "ftime",
  };
  static const std::unordered_set<std::string> wallclock_types = {
      "system_clock", "steady_clock", "high_resolution_clock",
  };
  static const std::unordered_set<std::string> rand_calls = {
      "rand", "srand", "random", "srandom", "drand48", "lrand48", "rand_r",
  };
  static const std::unordered_set<std::string> rand_types = {
      "random_device", "mt19937", "mt19937_64", "default_random_engine",
      "minstd_rand",
  };
  static const std::unordered_set<std::string> env_calls = {
      "getenv", "secure_getenv",
  };

  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;

    if (wallclock_types.count(t.text) != 0) {
      ctx.report("det-wallclock", t.line,
                 "std::chrono::" + t.text +
                     " in a simulation layer; virtual time must come from "
                     "sim::Engine::now()");
      continue;
    }
    if (wallclock_calls.count(t.text) != 0 && is_call(toks, i) &&
        !is_member_access(toks, i)) {
      ctx.report("det-wallclock", t.line,
                 t.text +
                     "() reads the host clock; virtual time must come from "
                     "sim::Engine::now()");
      continue;
    }
    if (rand_types.count(t.text) != 0) {
      ctx.report("det-rand", t.line,
                 t.text + " is host-seeded/nonportable; use sim::Rng");
      continue;
    }
    if (rand_calls.count(t.text) != 0 && is_call(toks, i) &&
        !is_member_access(toks, i)) {
      ctx.report("det-rand", t.line,
                 t.text + "() is host randomness; use sim::Rng");
      continue;
    }
    if (env_calls.count(t.text) != 0 && is_call(toks, i)) {
      ctx.report("det-env", t.line,
                 t.text +
                     "() makes results depend on the host environment; "
                     "plumb configuration through parameters");
      continue;
    }
  }
}

void check_determinism(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;

  det_sites_scan(ctx, 0, toks.size());

  // det-unordered-iter: collect names declared with an unordered container
  // type in this file, then flag range-for statements whose range
  // expression mentions one of them.  (File-level only: the declaration
  // and the loop must be matched up, which a body slice cannot do.)
  std::unordered_set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].in_directive) continue;
    if (toks[i].text != "unordered_map" && toks[i].text != "unordered_set" &&
        toks[i].text != "unordered_multimap" &&
        toks[i].text != "unordered_multiset") {
      continue;
    }
    // Skip the template argument list, then take the declared name.
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "<") ++depth;
      if (toks[j].text == ">" && --depth == 0) break;
    }
    if (j + 1 < toks.size() && toks[j + 1].kind == TokKind::kIdent) {
      unordered_names.insert(toks[j + 1].text);
    }
  }
  if (!unordered_names.empty()) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
      // Find the matching ')' and the top-level ':' inside.
      int depth = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (toks[j].text == ":" && depth == 1 && colon == 0 &&
            toks[j - 1].text != ":" &&
            (j + 1 >= toks.size() || toks[j + 1].text != ":")) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent &&
            unordered_names.count(toks[j].text) != 0) {
          ctx.report("det-unordered-iter", toks[j].line,
                     "range-for over unordered container '" + toks[j].text +
                         "': iteration order is host-dependent and must not "
                         "feed results; iterate a sorted copy or keyed order");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot-*: allocation bans inside SPAM_HOT (and hot-reachable) functions.
// ---------------------------------------------------------------------------

// Allocation/growth sites over [begin, end): shared between the direct
// SPAM_HOT-body pass and the call-graph's hot-reachable pass.
void hot_sites_scan(RuleContext& ctx, std::size_t begin, std::size_t end) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t j = begin; j < end && j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (t.text == "new") {
      // Placement new (`new (addr) T`) reuses storage; allowed.
      if (j + 1 < toks.size() && toks[j + 1].text == "(") continue;
      ctx.report("hot-alloc", t.line,
                 "operator new inside a SPAM_HOT function; hot-path "
                 "storage must come from a pool");
    } else if (t.text == "make_unique" || t.text == "make_shared") {
      ctx.report("hot-alloc", t.line,
                 "std::" + t.text +
                     " allocates inside a SPAM_HOT function; hot-path "
                     "storage must come from a pool");
    } else if ((t.text == "malloc" || t.text == "calloc" ||
                t.text == "realloc" || t.text == "strdup") &&
               is_call(toks, j)) {
      ctx.report("hot-alloc", t.line,
                 t.text + "() inside a SPAM_HOT function; hot-path "
                          "storage must come from a pool");
    } else if (t.text == "function" && std_qualified(toks, j)) {
      ctx.report("hot-alloc", t.line,
                 "std::function may heap-allocate its closure inside a "
                 "SPAM_HOT function; use sim::InlineAction");
    } else if ((t.text == "push_back" || t.text == "emplace_back") &&
               is_call(toks, j)) {
      if (!ctx.has_marker(t.line, "capacity-ok")) {
        ctx.report("hot-growth", t.line,
                   t.text +
                       " inside a SPAM_HOT function without a "
                       "`// spam-lint: capacity-ok` audit that steady-state "
                       "capacity is already reserved");
      }
    }
  }
}

void check_hot_paths(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "SPAM_HOT" || toks[i].in_directive) continue;

    // Find the function body: the first '{' before any ';' at file level.
    // A ';' first means this is a mere declaration — the contract is that
    // SPAM_HOT annotates definitions, where the body can be checked.
    std::size_t open = 0;
    int paren = 0;
    bool declaration_only = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++paren;
      if (toks[j].text == ")") --paren;
      if (paren == 0 && toks[j].text == ";") {
        declaration_only = true;
        break;
      }
      if (paren == 0 && toks[j].text == "{") {
        open = j;
        break;
      }
    }
    if (declaration_only || open == 0) continue;
    std::size_t close = open;
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}" && --depth == 0) {
        close = j;
        break;
      }
    }

    hot_sites_scan(ctx, open + 1, close);
    i = close;
  }
}

// ---------------------------------------------------------------------------
// hot-charge-loop: per-element time charging in app/runtime loop bodies.
// ---------------------------------------------------------------------------

// A charge_*()/elapse() call inside a loop body pays one ledger update per
// element at best — and one full engine sleep (two fiber switches plus an
// event push/pop) per element when the local clock is off.  The cost model
// is additive, so a loop's compute cost folds into a single hoisted
// `count * unit` charge with identical simulated time.  Where the loop
// itself *is* the batching (one charge per pass, per destination, per
// iteration), audit the call with `// spam-lint: charge-ok`.
void charge_loops_scan(RuleContext& ctx, std::size_t begin, std::size_t end) {
  const auto& toks = ctx.file.tokens;
  const std::size_t limit = std::min(end, toks.size());

  static const std::unordered_set<std::string> charge_calls = {
      "charge",         "charge_us",        "charge_deferred",
      "charge_flops",   "charge_int_ops",   "charge_mem_bytes",
      "elapse",         "elapse_us",
  };

  // Pass 1: mark every token that sits inside some loop body.  Loop bodies
  // are found lexically: `for`/`while` followed by a parenthesized head and
  // either a brace block or a single statement, plus `do { ... }`.  A `;`
  // right after the head is a do-while tail or an empty body — skipped.
  std::vector<char> in_loop(toks.size(), 0);
  for (std::size_t i = begin; i < limit; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    std::size_t body = 0;  // index of the body's first token
    if (t.text == "for" || t.text == "while") {
      if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
      int depth = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close == 0 || close + 1 >= toks.size()) continue;
      body = close + 1;
      if (toks[body].text == ";") continue;
    } else if (t.text == "do") {
      if (i + 1 >= toks.size() || toks[i + 1].text != "{") continue;
      body = i + 1;
    } else {
      continue;
    }
    std::size_t loop_end = body;
    if (toks[body].text == "{") {
      int depth = 0;
      for (std::size_t j = body; j < toks.size(); ++j) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) {
          loop_end = j;
          break;
        }
      }
    } else {
      // Single-statement body: through the next ';' at top nesting level.
      int paren = 0, brace = 0;
      for (std::size_t j = body; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++paren;
        if (toks[j].text == ")") --paren;
        if (toks[j].text == "{") ++brace;
        if (toks[j].text == "}") --brace;
        if (toks[j].text == ";" && paren == 0 && brace == 0) {
          loop_end = j;
          break;
        }
      }
    }
    for (std::size_t j = body; j <= loop_end && j < toks.size(); ++j) {
      in_loop[j] = 1;
    }
  }

  // Pass 2: flag charge-family calls on marked tokens.
  for (std::size_t i = begin; i < limit; ++i) {
    if (in_loop[i] == 0) continue;
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (charge_calls.count(t.text) == 0 || !is_call(toks, i)) continue;
    if (ctx.has_marker(t.line, "charge-ok")) continue;
    ctx.report("hot-charge-loop", t.line,
               t.text +
                   "() inside a loop body charges time per element; hoist "
                   "one batched charge out of the loop or audit with "
                   "`// spam-lint: charge-ok`");
  }
}

// ---------------------------------------------------------------------------
// payload-escape: Packet::payload views stored beyond handler scope.
// ---------------------------------------------------------------------------

// The PR 1 zero-copy arena recycles a packet's payload storage once the
// delivering handler returns; a view stashed in a member or pushed into a
// container dangles on the next pool cycle.  Consuming the bytes in place
// (memcpy from `pkt.payload.data()`) and re-pointing a *packet's* payload
// (`pkt.payload = ...`) are both fine; storing the view is not.  A ring
// that is provably drained before the pool recycles can be audited with
// `// spam-lint: payload-ok`.
void check_payload_escape(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;

  static const std::unordered_set<std::string> store_calls = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "insert",       "assign",
  };

  for (std::size_t i = 1; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive || t.text != "payload") {
      continue;
    }
    const std::string& prev = toks[i - 1].text;
    const bool via_dot = prev == ".";
    const bool via_arrow = prev == ">" && i >= 2 && toks[i - 2].text == "-";
    if (!via_dot && !via_arrow) continue;
    // Assignment TO the payload re-points the view: allowed.
    if (i + 1 < toks.size() && toks[i + 1].text == "=") continue;
    if (ctx.has_marker(t.line, "payload-ok")) continue;

    // Walk back through the statement: the first top-level `=` or
    // enclosing '(' decides what happens to the view.
    int depth = 0;
    for (std::size_t j = i - 1; j-- > 0;) {
      const std::string& b = toks[j].text;
      if (b == ";" || b == "{" || b == "}" || b == "return") break;
      if (b == ")" || b == "]") {
        ++depth;
        continue;
      }
      if (b == "[") {
        --depth;
        continue;
      }
      if (b == "(") {
        if (depth > 0) {
          --depth;
          continue;
        }
        // Enclosing call: storing the view into a container escapes it.
        if (j > 0 && toks[j - 1].kind == TokKind::kIdent &&
            store_calls.count(toks[j - 1].text) != 0) {
          ctx.report("payload-escape", t.line,
                     toks[j - 1].text +
                         "(... .payload ...) stores a payload view in a "
                         "container; the arena recycles the storage after "
                         "the handler returns — copy the bytes or audit a "
                         "drained ring with `// spam-lint: payload-ok`");
        }
        break;
      }
      if (b == "=" && depth == 0) {
        // `lhs = ... .payload`: flag stores into members (the `_`-suffix
        // convention, or an explicit this->).
        const bool member_lhs =
            (j > 0 && toks[j - 1].kind == TokKind::kIdent &&
             ends_with(toks[j - 1].text, "_")) ||
            (j > 3 && toks[j - 3].text == "this");
        if (member_lhs) {
          ctx.report("payload-escape", t.line,
                     "a payload view is stored into a member; the arena "
                     "recycles the storage after the handler returns — copy "
                     "the bytes or audit with `// spam-lint: payload-ok`");
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// debt-engine-now: raw engine clock reads above the settlement line.
// ---------------------------------------------------------------------------

// PR 5's contract: under the runtime layers, a node's clock is
// engine().now() *plus its unsettled charge debt*.  Reading the engine
// clock raw silently drops the debt term and skips the cross-node
// settlement NodeCtx::now() performs.  src/sim and src/sphw run in engine
// context and are exempt.
void check_debt_now(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive || t.text != "now") {
      continue;
    }
    if (!is_call(toks, i)) continue;
    const std::string& p1 = toks[i - 1].text;
    if (p1 != "." && !(p1 == ">" && toks[i - 2].text == "-")) continue;
    const std::size_t recv = p1 == "." ? i - 2 : i - 3;
    bool engine_recv = false;
    if (toks[recv].text == "engine_") {
      engine_recv = true;
    } else if (toks[recv].text == ")" && recv >= 2 &&
               toks[recv - 1].text == "(" &&
               toks[recv - 2].text == "engine") {
      engine_recv = true;  // `engine().now()` / `ctx.engine().now()`
    }
    if (!engine_recv) continue;
    ctx.report("debt-engine-now", t.line,
               "raw engine clock read in a runtime layer drops this node's "
               "unsettled charge debt; use NodeCtx::now(), which folds the "
               "ledger and settles cross-node observations");
  }
}

// ---------------------------------------------------------------------------
// fiber-*: patterns that break under fiber stack switching.
// ---------------------------------------------------------------------------

void check_fiber_safety(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;

    if (t.text == "thread_local") {
      ctx.report("fiber-tls", t.line,
                 "thread_local in the simulation tree: a raw read cached "
                 "across Fiber::resume()/yield() goes stale, and state leaks "
                 "between Worlds sharing a host thread; audit into the "
                 "allowlist with a rationale");
      continue;
    }

    // The TSan fiber announcements must execute inside the very frame that
    // performs the stack switch: as out-of-line functions, their
    // __tsan_func_entry/exit pair lands on two *different* shadow call
    // stacks and underflows one (the exact PR 2 crash).  Enforced by
    // requiring always_inline somewhere in the enclosing function's
    // signature.
    if (t.text == "__tsan_switch_to_fiber" || t.text == "__tsan_create_fiber" ||
        t.text == "__tsan_get_current_fiber") {
      // Walk back to the opening '{' of the enclosing function, then scan
      // its signature region (back to the previous ';', '{' or '}') for
      // always_inline.
      int depth = 0;
      std::size_t open = 0;
      for (std::size_t j = i; j-- > 0;) {
        if (toks[j].text == "}") ++depth;
        if (toks[j].text == "{") {
          if (depth == 0) {
            open = j;
            break;
          }
          --depth;
        }
      }
      // No enclosing brace at all: a file-scope *declaration* of the
      // interface (e.g. an extern "C" prototype), not a call that can
      // execute — nothing to flag.
      if (open == 0) continue;
      bool inlined = false;
      {
        // The enclosing '{' may belong to a nested block; keep climbing
        // until the token before the candidate brace closes a parameter
        // list (a function signature) or we run out.
        std::size_t sig_end = open;
        for (;;) {
          std::size_t k = sig_end;
          bool is_function = false;
          while (k-- > 0) {
            const std::string& p = toks[k].text;
            if (p == ")") {
              is_function = true;
              break;
            }
            if (p == ";" || p == "{" || p == "}") break;
          }
          if (is_function || sig_end == 0) break;
          // Nested bare block: climb to the next enclosing '{'.
          int d = 0;
          std::size_t next_open = 0;
          for (std::size_t j = sig_end; j-- > 0;) {
            if (toks[j].text == "}") ++d;
            if (toks[j].text == "{") {
              if (d == 0) {
                next_open = j;
                break;
              }
              --d;
            }
          }
          if (next_open == 0) break;
          sig_end = next_open;
        }
        for (std::size_t k = sig_end; k-- > 0;) {
          const std::string& p = toks[k].text;
          if (p == ";" || p == "}" || p == "{") break;
          if (p == "always_inline" || p == "SPAM_ALWAYS_INLINE") {
            inlined = true;
            break;
          }
        }
      }
      if (!inlined) {
        ctx.report("fiber-tsan-inline", t.line,
                   t.text +
                       " called from a function not marked always_inline; "
                       "out-of-line TSan fiber announcements unbalance the "
                       "shadow call stacks");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hdr-*: header hygiene.
// ---------------------------------------------------------------------------

// std symbol -> canonical header.  Only `std::`-qualified uses are matched
// (plus a few macro-ish names handled specially), which keeps false
// positives near zero at the cost of missing unqualified uses.
const std::unordered_map<std::string, std::string>& std_symbol_headers() {
  static const std::unordered_map<std::string, std::string> map = {
      {"vector", "vector"},
      {"string", "string"},
      {"deque", "deque"},
      {"array", "array"},
      {"map", "map"},
      {"set", "set"},
      {"unordered_map", "unordered_map"},
      {"unordered_set", "unordered_set"},
      {"mutex", "mutex"},
      {"lock_guard", "mutex"},
      {"unique_lock", "mutex"},
      {"scoped_lock", "mutex"},
      {"condition_variable", "condition_variable"},
      {"condition_variable_any", "condition_variable"},
      {"thread", "thread"},
      {"atomic", "atomic"},
      {"function", "functional"},
      {"unique_ptr", "memory"},
      {"shared_ptr", "memory"},
      {"weak_ptr", "memory"},
      {"make_unique", "memory"},
      {"make_shared", "memory"},
      {"addressof", "memory"},
      {"optional", "optional"},
      {"nullopt", "optional"},
      {"variant", "variant"},
      {"exception_ptr", "exception"},
      {"current_exception", "exception"},
      {"rethrow_exception", "exception"},
      {"uint8_t", "cstdint"},
      {"uint16_t", "cstdint"},
      {"uint32_t", "cstdint"},
      {"uint64_t", "cstdint"},
      {"int8_t", "cstdint"},
      {"int16_t", "cstdint"},
      {"int32_t", "cstdint"},
      {"int64_t", "cstdint"},
      {"uintptr_t", "cstdint"},
      {"intptr_t", "cstdint"},
      {"size_t", "cstddef"},
      {"ptrdiff_t", "cstddef"},
      {"byte", "cstddef"},
      {"max_align_t", "cstddef"},
      {"nullptr_t", "cstddef"},
      {"min", "algorithm"},
      {"max", "algorithm"},
      {"sort", "algorithm"},
      {"stable_sort", "algorithm"},
      {"fill", "algorithm"},
      {"clamp", "algorithm"},
      {"any_of", "algorithm"},
      {"all_of", "algorithm"},
      {"find_if", "algorithm"},
      {"move", "utility"},
      {"forward", "utility"},
      {"exchange", "utility"},
      {"swap", "utility"},
      {"pair", "utility"},
      {"declval", "utility"},
      {"numeric_limits", "limits"},
      {"launder", "new"},
      {"nothrow", "new"},
      {"snprintf", "cstdio"},
      {"fprintf", "cstdio"},
      {"printf", "cstdio"},
      {"fputc", "cstdio"},
      {"abort", "cstdlib"},
      {"exit", "cstdlib"},
      {"malloc", "cstdlib"},
      {"free", "cstdlib"},
      {"memcpy", "cstring"},
      {"memset", "cstring"},
      {"memcmp", "cstring"},
      {"strlen", "cstring"},
      {"ostream", "ostream"},
      {"ostringstream", "sstream"},
      {"istringstream", "sstream"},
      {"stringstream", "sstream"},
      {"is_same_v", "type_traits"},
      {"enable_if_t", "type_traits"},
      {"decay_t", "type_traits"},
      {"is_invocable_r_v", "type_traits"},
      {"is_nothrow_move_constructible_v", "type_traits"},
      {"is_arithmetic_v", "type_traits"},
      {"is_enum_v", "type_traits"},
      {"is_floating_point_v", "type_traits"},
      {"is_trivially_copyable_v", "type_traits"},
  };
  return map;
}

void check_header_hygiene(RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;

  // hdr-pragma-once: the first directive must be `#pragma once`.
  bool pragma_once_first = false;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].in_directive) break;  // code before any directive
    if (toks[i].text == "#" && toks[i + 1].text == "pragma" &&
        toks[i + 2].text == "once") {
      pragma_once_first = true;
    }
    break;
  }
  if (!pragma_once_first) {
    const int line = toks.empty() ? 1 : toks.front().line;
    ctx.report("hdr-pragma-once", line,
               "header does not open with #pragma once");
  }

  // Collect this header's own #include set (both <...> and "...") —
  // note quoted include paths are stripped by the lexer as string
  // literals, so reparse them from the raw line text.
  std::unordered_set<std::string> includes;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].text == "#" && toks[i + 1].text == "include")) continue;
    const int line = toks[i].line;
    if (line - 1 < 0 || line - 1 >= static_cast<int>(ctx.file.lines.size())) {
      continue;
    }
    const std::string& raw = ctx.file.lines[static_cast<std::size_t>(line - 1)];
    for (const auto& [open_ch, close_ch] :
         std::vector<std::pair<char, char>>{{'<', '>'}, {'"', '"'}}) {
      const std::size_t a = raw.find(open_ch);
      if (a == std::string::npos) continue;
      const std::size_t b = raw.find(close_ch, a + 1);
      if (b == std::string::npos) continue;
      includes.insert(raw.substr(a + 1, b - a - 1));
      break;
    }
  }

  // hdr-self-contained: every std:: symbol used must have its canonical
  // header in the direct include set.
  const auto& symmap = std_symbol_headers();
  std::unordered_set<std::string> reported;  // one report per missing header
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (!std_qualified(toks, i)) continue;
    const auto it = symmap.find(t.text);
    if (it == symmap.end()) continue;
    if (includes.count(it->second) != 0) continue;
    if (!reported.insert(it->second).second) continue;
    ctx.report("hdr-self-contained", t.line,
               "std::" + t.text + " used but <" + it->second +
                   "> is not included by this header");
  }

  // assert() is macro-shaped, not std::-qualified.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text == "assert" && !toks[i].in_directive &&
        is_call(toks, i) && !is_member_access(toks, i) &&
        includes.count("cassert") == 0) {
      ctx.report("hdr-self-contained", toks[i].line,
                 "assert() used but <cassert> is not included by this header");
      break;
    }
  }
}

}  // namespace

// The deterministic simulation roots: everything the paper's numbers come
// out of.  Host-side tooling (driver, report, bench mains) may read clocks;
// these directories may not.
bool in_sim_scope(const std::string& rel_path) {
  static const std::array<const char*, 5> roots = {
      "src/sim/", "src/sphw/", "src/am/", "src/mpi/", "src/splitc/"};
  return std::any_of(roots.begin(), roots.end(),
                     [&](const char* r) { return starts_with(rel_path, r); });
}

std::vector<Violation> run_rules(const LexedFile& file,
                                 const std::string& rel_path) {
  std::vector<Violation> out;
  RuleContext ctx{file, &out, ""};

  if (in_sim_scope(rel_path)) {
    check_determinism(ctx);
    check_payload_escape(ctx);
  }
  if (in_runtime_scope(rel_path)) check_debt_now(ctx);
  if (starts_with(rel_path, "src/")) check_fiber_safety(ctx);
  if (starts_with(rel_path, "src/apps/") ||
      starts_with(rel_path, "src/splitc/")) {
    charge_loops_scan(ctx, 0, file.tokens.size());
  }
  check_hot_paths(ctx);
  if (is_header(rel_path)) check_header_hygiene(ctx);

  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.line < b.line;
                   });
  return out;
}

void scan_hot_body(const LexedFile& file, std::size_t body_begin,
                   std::size_t body_end, const std::string& provenance,
                   std::vector<Violation>* out) {
  RuleContext ctx{file, out, provenance};
  hot_sites_scan(ctx, body_begin + 1, body_end);
}

void scan_charge_loop_body(const LexedFile& file, std::size_t body_begin,
                           std::size_t body_end,
                           const std::string& provenance,
                           std::vector<Violation>* out) {
  RuleContext ctx{file, out, provenance};
  charge_loops_scan(ctx, body_begin + 1, body_end);
}

void scan_det_body(const LexedFile& file, std::size_t body_begin,
                   std::size_t body_end, const std::string& provenance,
                   std::vector<Violation>* out) {
  RuleContext ctx{file, out, provenance};
  det_sites_scan(ctx, body_begin + 1, body_end);
}

}  // namespace spam::lint
