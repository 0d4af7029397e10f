#include "pf/functions.hpp"

#include <deque>
#include <unordered_set>

#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/ast.hpp"
#include "pf/eval.hpp"
#include "pf/parser.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace identxx::pf {

namespace {

/// Compare two values: numerically when both parse as integers,
/// lexicographically when neither does.  Mixed operands — one integer, one
/// not (e.g. "10" vs "9 ") — have no coherent order: a lexicographic
/// fallback would flip gt/lt verdicts depending on digit count, so they
/// yield nullopt and the predicate fails instead.  Also nullopt when
/// either is Undefined.
[[nodiscard]] std::optional<int> compare(const Value& a, const Value& b) {
  const auto sa = value_to_string(a);
  const auto sb = value_to_string(b);
  if (!sa || !sb) return std::nullopt;
  const auto na = util::parse_i64(*sa);
  const auto nb = util::parse_i64(*sb);
  if (na && nb) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  if (na || nb) return std::nullopt;  // mixed types: no verdict
  return sa->compare(*sb);
}

void require_arity(const FuncCall& call, std::size_t arity) {
  if (call.args.size() != arity) {
    throw PolicyError("function '" + call.name + "' expects " +
                      std::to_string(arity) + " arguments, got " +
                      std::to_string(call.args.size()) + " (line " +
                      std::to_string(call.line) + ")");
  }
}

void require_min_arity(const FuncCall& call, std::size_t arity) {
  if (call.args.size() < arity) {
    throw PolicyError("function '" + call.name + "' expects at least " +
                      std::to_string(arity) + " arguments, got " +
                      std::to_string(call.args.size()) + " (line " +
                      std::to_string(call.line) + ")");
  }
}

// ---- the predefined functions (§3.3) ----

bool fn_eq(const EvalContext&, const FuncCall& call,
           const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto c = compare(args[0], args[1]);
  return c.has_value() && *c == 0;
}

bool fn_gt(const EvalContext&, const FuncCall& call,
           const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto c = compare(args[0], args[1]);
  return c.has_value() && *c > 0;
}

bool fn_lt(const EvalContext&, const FuncCall& call,
           const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto c = compare(args[0], args[1]);
  return c.has_value() && *c < 0;
}

bool fn_gte(const EvalContext&, const FuncCall& call,
            const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto c = compare(args[0], args[1]);
  return c.has_value() && *c >= 0;
}

bool fn_lte(const EvalContext&, const FuncCall& call,
            const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto c = compare(args[0], args[1]);
  return c.has_value() && *c <= 0;
}

/// member(value, list): is `value` in the list?  The list argument may be a
/// brace-list literal, a macro-defined named list, or a plain word (treated
/// as a one-element list).
bool fn_member(const EvalContext& ctx, const FuncCall& call,
               const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto needle = value_to_string(args[0]);
  if (!needle) return false;
  std::vector<std::string> list;
  if (const auto* items = std::get_if<std::vector<std::string>>(&args[1])) {
    list = *items;
  } else if (const auto word = value_to_string(args[1])) {
    if (const auto named = ctx.ruleset().named_list(*word)) {
      list = *named;
    } else {
      list = {*word};
    }
  } else {
    return false;
  }
  for (const auto& item : list) {
    if (item == *needle) return true;
  }
  return false;
}

/// includes(haystack, needle): `haystack` is a delimited list value (commas
/// and/or whitespace); true when `needle` appears (Fig 8: os-patch).
bool fn_includes(const EvalContext&, const FuncCall& call,
                 const std::vector<Value>& args) {
  require_arity(call, 2);
  const auto haystack = value_to_string(args[0]);
  const auto needle = value_to_string(args[1]);
  if (!haystack || !needle) return false;
  for (const auto piece : util::split(*haystack, ',')) {
    for (const auto item : util::split_ws(piece)) {
      if (item == *needle) return true;
    }
  }
  return false;
}

/// allowed(rules): evaluate externally supplied PF+=2 rules against the
/// current flow; true when they pass it.  This is the delegation keystone:
/// the rules come out of an ident++ response (untrusted input), so parse
/// failures and excessive recursion make the predicate false rather than
/// failing the admin policy.
bool fn_allowed(const EvalContext& ctx, const FuncCall& call,
                const std::vector<Value>& args) {
  require_arity(call, 1);
  const auto text = value_to_string(args[0]);
  if (!text || text->empty()) return false;
  if (ctx.depth() >= EvalContext::kMaxDelegationDepth) {
    IDXX_LOG(kWarn, "pf") << "allowed(): delegation depth limit reached";
    return false;
  }
  Ruleset scratch;
  // Delegated rules may reference the including policy's tables and macros.
  scratch.tables = ctx.ruleset().tables;
  scratch.dicts = ctx.ruleset().dicts;
  scratch.macros = ctx.ruleset().macros;
  std::vector<Rule> rules;
  try {
    rules = parse_rules_into(scratch, *text, "delegated");
  } catch (const ParseError& e) {
    IDXX_LOG(kWarn, "pf") << "allowed(): unparseable delegated rules: "
                          << e.what();
    return false;
  }
  if (rules.empty()) return false;
  scratch.rules = std::move(rules);
  // Delegated rules evaluate with the same registry, so user-defined
  // functions remain available to them.
  const EvalContext nested(ctx.flow(), scratch, ctx.registry(), ctx.stats(),
                           ctx.depth() + 1);
  try {
    // Unlike the top-level ruleset (which keeps PF's default-pass), a flow
    // is `allowed` only when a delegated rule affirmatively passes it —
    // "tests if flow is allowed by rule specified in argument" (§3.3).
    const Verdict verdict = nested.eval_rules(scratch.rules);
    return verdict.allowed() && verdict.rule != nullptr;
  } catch (const PolicyError& e) {
    IDXX_LOG(kWarn, "pf") << "allowed(): delegated rules failed: " << e.what();
    return false;
  }
}

/// A verify(sig, pubkey, data...) call's arguments, parsed: the message is
/// the data values joined with '\n' (matching proto::signed_message).
struct VerifyArgs {
  crypto::Signature sig;
  crypto::PublicKey key;
  std::string message;
};

/// Parse a verify() call's argument values (at least three); nullopt when
/// any of them is not a string, or the signature or key is malformed.
std::optional<VerifyArgs> parse_verify_args(const std::vector<Value>& args) {
  const auto sig_hex = value_to_string(args[0]);
  const auto key_hex = value_to_string(args[1]);
  if (!sig_hex || !key_hex) return std::nullopt;
  const auto sig = crypto::Signature::from_hex(*sig_hex);
  const auto key = crypto::PublicKey::from_hex(*key_hex);
  if (!sig || !key) return std::nullopt;
  std::vector<std::string> data;
  data.reserve(args.size() - 2);
  for (std::size_t i = 2; i < args.size(); ++i) {
    const auto piece = value_to_string(args[i]);
    if (!piece) return std::nullopt;
    data.push_back(*piece);
  }
  return VerifyArgs{*sig, *key, proto::signed_message(data)};
}

/// verify(sig, pubkey, data...): Schnorr verification through the
/// registry's verifier, so repeat attestations hit the verification memo
/// and registered keys use their tier tables.
bool fn_verify(crypto::SchnorrVerifier& verifier, const FuncCall& call,
               const std::vector<Value>& args) {
  require_min_arity(call, 3);
  const auto parsed = parse_verify_args(args);
  return parsed && verifier.verify(parsed->key, parsed->message, parsed->sig);
}

}  // namespace

std::optional<std::string> value_to_string(const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* list = std::get_if<std::vector<std::string>>(&v)) {
    return util::join(*list, ",");
  }
  return std::nullopt;
}

std::optional<std::vector<std::string>> value_to_list(const Value& v) {
  if (const auto* list = std::get_if<std::vector<std::string>>(&v)) return *list;
  if (const auto* s = std::get_if<std::string>(&v)) {
    return std::vector<std::string>{*s};
  }
  return std::nullopt;
}

FunctionRegistry FunctionRegistry::with_builtins() {
  // Every builtin's verdict is determined by its argument values alone —
  // except `allowed`, which evaluates delegated rules against the current
  // flow and so must run per flow.  (`member` reads the ruleset's named
  // lists and `verify` the shared verification memo; both are fixed for an
  // engine's lifetime, so the flow-invariant contract holds.)
  FunctionRegistry registry;
  registry.register_function("eq", fn_eq, /*flow_invariant=*/true);
  registry.register_function("gt", fn_gt, /*flow_invariant=*/true);
  registry.register_function("lt", fn_lt, /*flow_invariant=*/true);
  registry.register_function("gte", fn_gte, /*flow_invariant=*/true);
  registry.register_function("lte", fn_lte, /*flow_invariant=*/true);
  registry.register_function("member", fn_member, /*flow_invariant=*/true);
  registry.register_function("includes", fn_includes, /*flow_invariant=*/true);
  registry.register_function("allowed", fn_allowed);
  // The verifier is shared by every copy of this registry (delegated-rule
  // evaluation reuses the registry), so one memo serves the whole engine.
  registry.verifier_ = std::make_shared<crypto::SchnorrVerifier>();
  registry.register_function(
      "verify",
      [verifier = registry.verifier_](const EvalContext&, const FuncCall& call,
                                      const std::vector<Value>& args) {
        return fn_verify(*verifier, call, args);
      },
      /*flow_invariant=*/true);
  // Batch warm-up: every reachable verify() call in a decide_many batch is
  // checked in ONE multi-scalar multiplication (DESIGN.md §15).  The
  // verdicts land in the verifier's memo, so the per-flow fn_verify calls
  // above become memo hits.  Purely advisory — malformed arguments are
  // skipped here and fail per flow, exactly as they would serially.
  registry.register_batch_preparer(
      "verify",
      [verifier = registry.verifier_](
          const std::vector<std::vector<Value>>& calls) {
        std::deque<std::string> messages;  // stable storage for the views
        std::vector<crypto::SchnorrVerifier::BatchItem> items;
        std::unordered_set<std::string> seen;
        for (const std::vector<Value>& args : calls) {
          if (args.size() < 3) continue;
          auto parsed = parse_verify_args(args);
          if (!parsed) continue;
          if (!seen.insert(parsed->sig.to_hex() + parsed->key.to_hex() +
                           parsed->message)
                   .second) {
            continue;
          }
          messages.push_back(std::move(parsed->message));
          items.push_back(crypto::SchnorrVerifier::BatchItem{
              parsed->key, messages.back(), parsed->sig});
        }
        // A single fresh attestation gains nothing from aggregation; the
        // per-flow path will verify it (and memo hits cost nothing here).
        if (items.size() < 2) return;
        (void)verifier->verify_batch(items);
      });
  return registry;
}

void FunctionRegistry::register_function(std::string name, PolicyFunction fn,
                                         bool flow_invariant) {
  functions_[std::move(name)] = Entry{std::move(fn), flow_invariant};
}

const PolicyFunction* FunctionRegistry::find(std::string_view name) const {
  const auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second.fn;
}

void FunctionRegistry::register_batch_preparer(std::string name,
                                               BatchPreparer preparer) {
  preparers_[std::move(name)] = std::move(preparer);
}

const BatchPreparer* FunctionRegistry::batch_preparer(
    std::string_view name) const {
  const auto it = preparers_.find(name);
  return it == preparers_.end() ? nullptr : &it->second;
}

bool FunctionRegistry::flow_invariant(std::string_view name) const {
  const auto it = functions_.find(name);
  return it != functions_.end() && it->second.flow_invariant;
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(functions_.size());
  for (const auto& [name, entry] : functions_) out.push_back(name);
  return out;
}

}  // namespace identxx::pf
