#include "pf/eval.hpp"

#include <unordered_map>

#include "util/error.hpp"

namespace identxx::pf {

PolicyEngine::PolicyEngine(Ruleset ruleset)
    : PolicyEngine(std::move(ruleset), FunctionRegistry::with_builtins()) {}

PolicyEngine::PolicyEngine(Ruleset ruleset, FunctionRegistry registry)
    : ruleset_(std::move(ruleset)), registry_(std::move(registry)) {
  compile();
}

Verdict PolicyEngine::evaluate(const FlowContext& ctx) const {
  ++stats_.evaluations;
  const EvalContext eval(ctx, ruleset_, registry_, stats_);
  return eval.eval_rules(ruleset_.rules);
}

// --------------------------------------------------------- batch compilation
//
// The batch entry point (DESIGN.md §11) shares two kinds of work across a
// decide_many batch while staying observably identical to serial
// evaluation:
//
//   * Static prefilters.  Each rule's proto / host / port constraints are
//     compiled once into flat CIDR lists (tables resolved up front), and
//     each *distinct* 5-tuple in the batch probes them once to produce its
//     candidate-rule list.  Rules a flow can never match are skipped
//     without being visited; rules that cannot be compiled (a table the
//     ruleset does not define) stay "dynamic" and run through the
//     interpreted matcher so PolicyError surfaces exactly where serial
//     evaluation would throw it.
//
//   * Hoisted `with` predicates.  Calls to flow-invariant functions (every
//     builtin except `allowed`) are memoized per (call site, resolved
//     argument values): the first flow to reach the call runs it, later
//     flows with equal arguments — e.g. a batch sharing one attestation —
//     reuse the verdict.  Memoization is lazy, so a call serial evaluation
//     would never reach (earlier predicate failed, quick short-circuit) is
//     never run here either.

namespace {

/// Collision-proof memo key: call-site id plus length-prefixed argument
/// renderings (argument strings are untrusted response bytes, so plain
/// joining would be forgeable).
[[nodiscard]] std::string memo_key(std::uint32_t site,
                                   const std::vector<Value>& args) {
  std::string key = std::to_string(site);
  for (const Value& value : args) {
    key += '\x1f';
    if (std::holds_alternative<Undefined>(value)) {
      key += 'u';
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      key += 's';
      key += std::to_string(s->size());
      key += ':';
      key += *s;
    } else {
      const auto& list = std::get<std::vector<std::string>>(value);
      key += 'l';
      for (const std::string& item : list) {
        key += std::to_string(item.size());
        key += ':';
        key += item;
      }
    }
  }
  return key;
}

/// Expression whose value cannot depend on the flow under evaluation:
/// literals, list literals, and user-defined dictionary lookups (@src,
/// @dst and @flow are per-flow).
[[nodiscard]] bool expr_flow_independent(const Expr& expr) {
  if (const auto* index = std::get_if<DictIndexExpr>(&expr)) {
    return index->dict != "src" && index->dict != "dst" &&
           index->dict != "flow";
  }
  return true;  // LiteralExpr / ListExpr
}

}  // namespace

void PolicyEngine::compile() {
  const auto compile_endpoint = [this](const Endpoint& endpoint) {
    CompiledEndpoint out;
    out.negated = endpoint.negated;
    if (endpoint.port) {
      out.has_port = true;
      out.port_lo = endpoint.port->low;
      out.port_hi = endpoint.port->high;
    }
    // Resolve the host spec to a flat CIDR list.  Any reference to a table
    // the ruleset does not define makes the endpoint dynamic: serial
    // evaluation throws PolicyError when (and only when) a flow's scan
    // visits that spec, and only the interpreted path reproduces that.
    const auto add_table = [&](const std::string& name) {
      const auto it = ruleset_.tables.find(name);
      if (it == ruleset_.tables.end()) {
        out.dynamic = true;
        return;
      }
      out.cidrs.insert(out.cidrs.end(), it->second.begin(), it->second.end());
    };
    struct Visitor {
      CompiledEndpoint& out;
      const decltype(add_table)& table;
      void operator()(const AnyHost&) const { out.any = true; }
      void operator()(const CidrHost& h) const {
        out.any = false;
        out.cidrs.push_back(h.cidr);
      }
      void operator()(const TableHost& h) const {
        out.any = false;
        table(h.table);
      }
      void operator()(const ListHost& h) const {
        out.any = false;
        for (const auto& item : h.items) {
          if (const auto* cidr = std::get_if<net::Cidr>(&item)) {
            out.cidrs.push_back(*cidr);
          } else {
            table(std::get<std::string>(item));
          }
        }
      }
    };
    std::visit(Visitor{out, add_table}, endpoint.host);
    return out;
  };

  compiled_.reserve(ruleset_.rules.size());
  for (const Rule& rule : ruleset_.rules) {
    CompiledRule compiled;
    compiled.rule = &rule;
    compiled.proto = rule.proto;
    compiled.from = compile_endpoint(rule.from);
    compiled.to = compile_endpoint(rule.to);
    compiled.withs.reserve(rule.withs.size());
    for (const FuncCall& call : rule.withs) {
      CompiledCall cc;
      cc.call = &call;
      // May be null: serial evaluation only reports an unknown function
      // when a flow actually reaches the call, so the batch path defers
      // the error to the same point.
      cc.fn = registry_.find(call.name);
      cc.preparer = registry_.batch_preparer(call.name);
      if (cc.preparer != nullptr) has_preparers_ = true;
      cc.site = call_sites_++;
      cc.hoistable = registry_.flow_invariant(call.name);
      cc.static_args = true;
      for (const Expr& expr : call.args) {
        if (!expr_flow_independent(expr)) {
          cc.static_args = false;
          break;
        }
      }
      compiled.withs.push_back(std::move(cc));
    }
    compiled_.push_back(std::move(compiled));
  }
}

bool PolicyEngine::static_endpoint_matches(const CompiledEndpoint& endpoint,
                                           net::Ipv4Address addr,
                                           std::uint16_t port) noexcept {
  bool host_ok = endpoint.any;
  if (!host_ok) {
    for (const net::Cidr& cidr : endpoint.cidrs) {
      if (cidr.contains(addr)) {
        host_ok = true;
        break;
      }
    }
  }
  if (endpoint.negated) host_ok = !host_ok;
  if (!host_ok) return false;
  if (endpoint.has_port && (port < endpoint.port_lo || port > endpoint.port_hi)) {
    return false;
  }
  return true;
}

std::vector<std::uint32_t> PolicyEngine::static_candidates(
    const net::FiveTuple& flow) const {
  std::vector<std::uint32_t> out;
  out.reserve(compiled_.size());
  for (std::uint32_t i = 0; i < compiled_.size(); ++i) {
    const CompiledRule& rule = compiled_[i];
    // Serial order is proto, from, to; a static mismatch at any point
    // before the first dynamic spec proves serial evaluation returns
    // false there without visiting the (possibly throwing) remainder.
    if (rule.proto && *rule.proto != flow.proto) continue;
    if (!rule.from.dynamic) {
      if (!static_endpoint_matches(rule.from, flow.src_ip, flow.src_port)) {
        continue;
      }
      if (!rule.to.dynamic &&
          !static_endpoint_matches(rule.to, flow.dst_ip, flow.dst_port)) {
        continue;
      }
    }
    out.push_back(i);
  }
  return out;
}

std::vector<Verdict> PolicyEngine::evaluate_batch(
    std::span<const FlowContext> batch) const {
  ++stats_.batches;
  // Per-batch state: the flow-key index (distinct 5-tuples probe the
  // prefilters once), the hoisted-call memo, and per-site caches of
  // flow-independent argument vectors.
  std::unordered_map<net::FiveTuple, std::uint32_t> slots;
  std::vector<std::vector<std::uint32_t>> candidate_sets;
  std::unordered_map<std::string, bool> memo;
  std::vector<std::optional<std::vector<Value>>> args_cache(call_sites_);

  // Batch-preparer pre-pass (DESIGN.md §11, §15): before any flow is
  // evaluated, resolve the arguments of every reachable call to a function
  // with a registered preparer and hand them over in one shot (the
  // `verify` builtin batch-verifies all attestations with one multi-scalar
  // multiplication, seeding its memo).  A call is reachable for a flow
  // when every earlier `with` in its rule is hoistable and holds; gathering
  // for a rule stops at its first non-hoistable or false call, and at its
  // first preparer call (whose verdict is what the preparer computes), so
  // a vendor-gated verify is gathered only for that vendor's flows.
  // Purely a warm-up: resolution or gate failures are skipped (the
  // per-flow pass reaches the same PolicyError on its own, or never
  // reaches the call), preparer failures are swallowed, the gate checks
  // run against scratch stats and bypass the hoist memo — the stats
  // invariants against serial evaluation are untouched.  A gate may run
  // for a rule serial evaluation never visits (a `quick` match upstream);
  // flow-invariant predicates only read their arguments, so that is
  // unobservable.
  if (has_preparers_) {
    std::map<std::string_view, std::vector<std::vector<Value>>> gathered;
    EngineStats scratch_stats;
    for (const FlowContext& ctx : batch) {
      const auto [slot, inserted] = slots.try_emplace(
          ctx.flow, static_cast<std::uint32_t>(candidate_sets.size()));
      if (inserted) candidate_sets.push_back(static_candidates(ctx.flow));
      const EvalContext eval(ctx, ruleset_, registry_, scratch_stats);
      for (const std::uint32_t index : candidate_sets[slot->second]) {
        for (const CompiledCall& cc : compiled_[index].withs) {
          if (cc.fn == nullptr) break;
          if (cc.preparer == nullptr && !cc.hoistable) break;
          try {
            std::vector<Value> resolved;
            resolved.reserve(cc.call->args.size());
            for (const Expr& expr : cc.call->args) {
              resolved.push_back(eval.eval_expr(expr));
            }
            if (cc.preparer != nullptr) {
              gathered[cc.call->name].push_back(std::move(resolved));
              break;
            }
            if (!(*cc.fn)(eval, *cc.call, resolved)) break;
          } catch (...) {
            // The call does not resolve (or a gate throws) for this flow;
            // serial evaluation throws if and when it actually reaches the
            // call.
            break;
          }
        }
      }
    }
    for (const auto& [name, calls] : gathered) {
      try {
        (*registry_.batch_preparer(name))(calls);
      } catch (...) {
        // Advisory only: a failing preparer must not fail the batch.
      }
    }
  }

  const std::size_t rule_count = ruleset_.rules.size();
  std::vector<Verdict> out;
  out.reserve(batch.size());
  for (const FlowContext& ctx : batch) {
    ++stats_.evaluations;
    ++stats_.batch_flows;
    const auto [slot, inserted] = slots.try_emplace(
        ctx.flow, static_cast<std::uint32_t>(candidate_sets.size()));
    if (inserted) candidate_sets.push_back(static_candidates(ctx.flow));
    const std::vector<std::uint32_t>& candidates = candidate_sets[slot->second];

    const EvalContext eval(ctx, ruleset_, registry_, stats_);
    Verdict verdict;
    std::size_t visited = 0;
    std::size_t serial_visited = rule_count;  // quick break overwrites
    for (const std::uint32_t index : candidates) {
      ++visited;
      ++stats_.rules_scanned;
      const CompiledRule& rule = compiled_[index];

      // Dynamic endpoints re-run the interpreted matcher in serial order
      // (from, then to) so unknown-table PolicyErrors surface identically.
      if (rule.from.dynamic &&
          !eval.endpoint_matches(rule.rule->from, ctx.flow.src_ip,
                                 ctx.flow.src_port)) {
        continue;
      }
      if (rule.to.dynamic &&
          !eval.endpoint_matches(rule.rule->to, ctx.flow.dst_ip,
                                 ctx.flow.dst_port)) {
        continue;
      }
      if (rule.from.dynamic && !rule.to.dynamic &&
          !static_endpoint_matches(rule.to, ctx.flow.dst_ip,
                                   ctx.flow.dst_port)) {
        continue;
      }

      bool matched = true;
      std::vector<Value> scratch;
      for (const CompiledCall& cc : rule.withs) {
        if (cc.fn == nullptr) {
          throw PolicyError("unknown policy function '" + cc.call->name +
                            "' (line " + std::to_string(cc.call->line) + ")");
        }
        const std::vector<Value>* args;
        if (cc.static_args) {
          std::optional<std::vector<Value>>& cached = args_cache[cc.site];
          if (!cached) {
            std::vector<Value> resolved;
            resolved.reserve(cc.call->args.size());
            for (const Expr& expr : cc.call->args) {
              resolved.push_back(eval.eval_expr(expr));
            }
            cached = std::move(resolved);
          }
          args = &*cached;
        } else {
          scratch.clear();
          scratch.reserve(cc.call->args.size());
          for (const Expr& expr : cc.call->args) {
            scratch.push_back(eval.eval_expr(expr));
          }
          args = &scratch;
        }
        bool result;
        if (cc.hoistable) {
          std::string key = memo_key(cc.site, *args);
          if (const auto hit = memo.find(key); hit != memo.end()) {
            ++stats_.hoist_memo_hits;
            result = hit->second;
          } else {
            ++stats_.functions_called;
            result = (*cc.fn)(eval, *cc.call, *args);
            memo.emplace(std::move(key), result);
          }
        } else {
          ++stats_.functions_called;
          result = (*cc.fn)(eval, *cc.call, *args);
        }
        if (!result) {
          matched = false;
          break;
        }
      }
      if (!matched) continue;

      verdict.action = rule.rule->action;
      verdict.keep_state = rule.rule->keep_state;
      verdict.quick = rule.rule->quick;
      verdict.log = rule.rule->log;
      verdict.rule = rule.rule;
      if (rule.rule->quick) {
        serial_visited = index + 1;
        break;
      }
    }
    stats_.prefilter_skips += serial_visited - visited;
    out.push_back(verdict);
  }
  return out;
}

Verdict EvalContext::eval_rules(const std::vector<Rule>& rules) const {
  Verdict verdict;  // default: pass, no rule
  for (const Rule& rule : rules) {
    if (depth_ > 0) {
      ++stats_.delegated_rule_evals;
    } else {
      ++stats_.rules_scanned;
    }
    if (!rule_matches(rule)) continue;
    verdict.action = rule.action;
    verdict.keep_state = rule.keep_state;
    verdict.quick = rule.quick;
    verdict.log = rule.log;
    verdict.rule = &rule;
    if (rule.quick) break;  // quick forces this rule's execution (§3.3)
  }
  return verdict;
}

bool EvalContext::rule_matches(const Rule& rule) const {
  if (rule.proto && *rule.proto != flow_ctx_.flow.proto) return false;
  if (!endpoint_matches(rule.from, flow_ctx_.flow.src_ip,
                        flow_ctx_.flow.src_port)) {
    return false;
  }
  if (!endpoint_matches(rule.to, flow_ctx_.flow.dst_ip,
                        flow_ctx_.flow.dst_port)) {
    return false;
  }
  for (const FuncCall& call : rule.withs) {
    const PolicyFunction* fn = registry_.find(call.name);
    if (fn == nullptr) {
      throw PolicyError("unknown policy function '" + call.name + "' (line " +
                        std::to_string(call.line) + ")");
    }
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const Expr& expr : call.args) {
      args.push_back(eval_expr(expr));
    }
    ++stats_.functions_called;
    if (!(*fn)(*this, call, args)) return false;
  }
  return true;
}

bool EvalContext::endpoint_matches(const Endpoint& endpoint,
                                   net::Ipv4Address addr,
                                   std::uint16_t port) const {
  bool host_ok = host_matches(endpoint.host, addr);
  if (endpoint.negated) host_ok = !host_ok;
  if (!host_ok) return false;
  if (endpoint.port && !endpoint.port->contains(port)) return false;
  return true;
}

bool EvalContext::host_matches(const HostSpec& host,
                               net::Ipv4Address addr) const {
  struct Visitor {
    const EvalContext& ctx;
    net::Ipv4Address addr;

    bool operator()(const AnyHost&) const { return true; }
    bool operator()(const TableHost& h) const {
      const auto it = ctx.ruleset_.tables.find(h.table);
      if (it == ctx.ruleset_.tables.end()) {
        throw PolicyError("unknown table <" + h.table + ">");
      }
      for (const net::Cidr& cidr : it->second) {
        if (cidr.contains(addr)) return true;
      }
      return false;
    }
    bool operator()(const CidrHost& h) const { return h.cidr.contains(addr); }
    bool operator()(const ListHost& h) const {
      for (const auto& item : h.items) {
        if (const auto* cidr = std::get_if<net::Cidr>(&item)) {
          if (cidr->contains(addr)) return true;
        } else {
          const auto& table = std::get<std::string>(item);
          if ((*this)(TableHost{table})) return true;
        }
      }
      return false;
    }
  };
  return std::visit(Visitor{*this, addr}, host);
}

Value EvalContext::eval_expr(const Expr& expr) const {
  struct Visitor {
    const EvalContext& ctx;

    Value operator()(const DictIndexExpr& e) const { return ctx.lookup_dict(e); }
    Value operator()(const LiteralExpr& e) const { return e.value; }
    Value operator()(const ListExpr& e) const { return e.items; }
  };
  return std::visit(Visitor{*this}, expr);
}

Value EvalContext::lookup_dict(const DictIndexExpr& index) const {
  // Reserved dictionaries: @src / @dst from the ident++ responses.
  if (index.dict == "src" || index.dict == "dst") {
    const proto::ResponseDict& dict =
        index.dict == "src" ? flow_ctx_.src : flow_ctx_.dst;
    if (index.star) {
      // *@src[key]: concatenation across all sections (§3.3).
      const std::string joined = dict.concatenated(index.key);
      if (joined.empty() && !dict.contains(index.key)) return Undefined{};
      return joined;
    }
    const auto value = dict.latest(index.key);
    if (!value) return Undefined{};
    return std::string(*value);
  }
  // @flow extension: network-level facts about the flow itself.
  if (index.dict == "flow") {
    const net::FiveTuple& flow = flow_ctx_.flow;
    if (index.key == "src_ip") return flow.src_ip.to_string();
    if (index.key == "dst_ip") return flow.dst_ip.to_string();
    if (index.key == "proto") return net::to_string(flow.proto);
    if (index.key == "src_port") return std::to_string(flow.src_port);
    if (index.key == "dst_port") return std::to_string(flow.dst_port);
    if (flow_ctx_.openflow) {
      const net::TenTuple& of = *flow_ctx_.openflow;
      if (index.key == "in_port") return std::to_string(of.in_port);
      if (index.key == "src_mac") return of.src_mac.to_string();
      if (index.key == "dst_mac") return of.dst_mac.to_string();
      if (index.key == "vlan") return std::to_string(of.vlan_id);
      if (index.key == "ether_type") return std::to_string(of.ether_type);
    }
    return Undefined{};
  }
  // User-defined dictionaries (dict <pubkeys> { ... }, Fig 5/7).
  const auto dict_it = ruleset_.dicts.find(index.dict);
  if (dict_it == ruleset_.dicts.end()) {
    throw PolicyError("unknown dictionary '@" + index.dict + "'");
  }
  const auto value_it = dict_it->second.find(index.key);
  if (value_it == dict_it->second.end()) return Undefined{};
  return value_it->second;
}

bool is_flow_key(std::string_view key) noexcept {
  // Must stay in sync with lookup_dict's @flow branch above: the first
  // five are always available, the rest are OpenFlow-only (Undefined when
  // the context carries no TenTuple).
  return key == "src_ip" || key == "dst_ip" || key == "proto" ||
         key == "src_port" || key == "dst_port" || key == "in_port" ||
         key == "src_mac" || key == "dst_mac" || key == "vlan" ||
         key == "ether_type";
}

}  // namespace identxx::pf
