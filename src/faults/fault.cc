#include "faults/fault.h"

#include <cstdlib>
#include <utility>

#include "faults/retry.h"
#include "util/check.h"

namespace pccheck {
namespace {

/** Splits @p s on @p sep, dropping empty pieces. */
std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find(sep, start);
        const std::string piece =
            s.substr(start, end == std::string::npos ? end : end - start);
        if (!piece.empty()) {
            out.push_back(piece);
        }
        if (end == std::string::npos) {
            break;
        }
        start = end + 1;
    }
    return out;
}

std::uint64_t
parse_u64(const std::string& s, const std::string& what)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') {
        fatal("FaultPlan: bad " + what + " '" + s + "'");
    }
    return static_cast<std::uint64_t>(v);
}

double
parse_f64(const std::string& s, const std::string& what)
{
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
        fatal("FaultPlan: bad " + what + " '" + s + "'");
    }
    return v;
}

void
parse_action(const std::string& spec, FaultRule* rule)
{
    const std::size_t eq = spec.find('=');
    const std::string name = spec.substr(0, eq);
    if (name == "transient") {
        rule->action = FaultAction::kTransient;
    } else if (name == "permanent") {
        rule->action = FaultAction::kPermanent;
    } else if (name == "stall") {
        rule->action = FaultAction::kStall;
        if (eq == std::string::npos) {
            fatal("FaultPlan: stall needs a duration, e.g. stall=0.001");
        }
        rule->stall_seconds = parse_f64(spec.substr(eq + 1), "stall seconds");
    } else if (name == "drop") {
        rule->action = FaultAction::kDrop;
    } else if (name == "node_loss") {
        rule->action = FaultAction::kNodeLoss;
    } else if (name == "bitflip") {
        rule->action = FaultAction::kBitflip;
        if (eq == std::string::npos) {
            fatal("FaultPlan: bitflip needs a byte mask, e.g. bitflip=0x04");
        }
        const std::string arg = spec.substr(eq + 1);
        char* end = nullptr;
        const unsigned long long mask =
            std::strtoull(arg.c_str(), &end, 0);  // decimal or 0x-hex
        if (end == arg.c_str() || *end != '\0' || mask == 0 || mask > 0xff) {
            fatal("FaultPlan: bitflip mask must be a byte in [1,255]: '" +
                  arg + "'");
        }
        rule->bitflip_mask = static_cast<std::uint8_t>(mask);
    } else if (name == "unreadable") {
        rule->action = FaultAction::kUnreadable;
    } else if (name == "kill_tenant" || name == "kill_backend") {
        rule->action = name == "kill_tenant" ? FaultAction::kKillTenant
                                             : FaultAction::kKillBackend;
        if (eq == std::string::npos) {
            fatal("FaultPlan: " + name + " needs a target id, e.g. " +
                  name + "=3");
        }
        rule->target = parse_u64(spec.substr(eq + 1), name + " target");
    } else {
        fatal("FaultPlan: unknown action '" + name + "'");
    }
    if (name != "stall" && name != "bitflip" && name != "kill_tenant" &&
        name != "kill_backend" && eq != std::string::npos) {
        fatal("FaultPlan: action '" + name + "' takes no argument");
    }
}

void
parse_trigger(const std::string& spec, FaultRule* rule)
{
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) {
        fatal("FaultPlan: trigger needs a value: '" + spec + "'");
    }
    const std::string name = spec.substr(0, eq);
    const std::string arg = spec.substr(eq + 1);
    if (name == "nth") {
        rule->trigger = FaultTrigger::kNthOp;
        rule->nth = parse_u64(arg, "nth");
        PCCHECK_CHECK_MSG(rule->nth >= 1, "nth is 1-based");
    } else if (name == "every") {
        rule->trigger = FaultTrigger::kEveryNthOp;
        rule->nth = parse_u64(arg, "every");
        PCCHECK_CHECK_MSG(rule->nth >= 1, "every needs period >= 1");
    } else if (name == "p") {
        rule->trigger = FaultTrigger::kProbability;
        rule->probability = parse_f64(arg, "probability");
        PCCHECK_CHECK_MSG(
            rule->probability >= 0.0 && rule->probability <= 1.0,
            "probability must be in [0,1]");
    } else if (name == "window") {
        rule->trigger = FaultTrigger::kOpWindow;
        const std::size_t dash = arg.find('-');
        if (dash == std::string::npos) {
            fatal("FaultPlan: window needs LO-HI: '" + arg + "'");
        }
        rule->window_lo = parse_u64(arg.substr(0, dash), "window lo");
        rule->window_hi = parse_u64(arg.substr(dash + 1), "window hi");
        PCCHECK_CHECK_MSG(rule->window_lo >= 1 &&
                              rule->window_lo <= rule->window_hi,
                          "window bounds must satisfy 1 <= lo <= hi");
    } else {
        fatal("FaultPlan: unknown trigger '" + name + "'");
    }
}

FaultRule
parse_rule(const std::string& spec)
{
    FaultRule rule;
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0) {
        fatal("FaultPlan: rule needs point:action@trigger: '" + spec + "'");
    }
    rule.point = spec.substr(0, colon);
    const std::size_t at = spec.find('@', colon + 1);
    if (at == std::string::npos) {
        fatal("FaultPlan: rule needs @trigger: '" + spec + "'");
    }
    parse_action(spec.substr(colon + 1, at - colon - 1), &rule);
    std::string trigger = spec.substr(at + 1);
    const std::size_t comma = trigger.find(',');
    if (comma != std::string::npos) {
        const std::string extra = trigger.substr(comma + 1);
        trigger = trigger.substr(0, comma);
        if (extra.rfind("limit=", 0) != 0) {
            fatal("FaultPlan: unknown rule option '" + extra + "'");
        }
        rule.limit = parse_u64(extra.substr(6), "limit");
    }
    parse_trigger(trigger, &rule);
    return rule;
}

}  // namespace

FaultPlan
FaultPlan::parse(const std::string& spec)
{
    FaultPlan plan;
    for (const std::string& rule : split(spec, ';')) {
        plan.add(parse_rule(rule));
    }
    return plan;
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : plan_(std::move(plan)), rng_(seed),
      fired_(plan_.rules().size(), 0)
{
}

void
FaultInjector::set_plan(FaultPlan plan)
{
    MutexLock lock(mu_);
    plan_ = std::move(plan);
    fired_.assign(plan_.rules().size(), 0);
}

void
FaultInjector::set_node_loss_handler(std::function<void()> handler)
{
    MutexLock lock(mu_);
    node_loss_handler_ = std::move(handler);
}

void
FaultInjector::set_kill_tenant_handler(
    std::function<void(std::uint64_t)> handler)
{
    MutexLock lock(mu_);
    kill_tenant_handler_ = std::move(handler);
}

void
FaultInjector::set_kill_backend_handler(
    std::function<void(std::uint64_t)> handler)
{
    MutexLock lock(mu_);
    kill_backend_handler_ = std::move(handler);
}

StorageStatus
FaultInjector::on_op(const char* point)
{
    // Write-path points cannot express data corruption; a kBitflip
    // rule matching here degrades to a silent no-op by design (the
    // mask is reported only through on_op_full).
    return on_op_full(point).status;
}

FaultOutcome
FaultInjector::on_op_full(const char* point)
{
    double stall_seconds = 0.0;
    std::function<void()> node_loss;
    std::function<void()> kill_target;
    StorageStatus status = StorageStatus::success();
    std::uint8_t bitflip_mask = 0;
    {
        MutexLock lock(mu_);
        ++op_index_;
        const std::vector<FaultRule>& rules = plan_.rules();
        for (std::size_t i = 0; i < rules.size(); ++i) {
            const FaultRule& rule = rules[i];
            if (rule.point != "*" && rule.point != point) {
                continue;
            }
            if (rule.limit != 0 && fired_[i] >= rule.limit) {
                continue;
            }
            bool fires = false;
            switch (rule.trigger) {
              case FaultTrigger::kNthOp:
                fires = op_index_ == rule.nth;
                break;
              case FaultTrigger::kEveryNthOp:
                fires = op_index_ % rule.nth == 0;
                break;
              case FaultTrigger::kProbability:
                fires = rng_.chance(rule.probability);
                break;
              case FaultTrigger::kOpWindow:
                fires = op_index_ >= rule.window_lo &&
                        op_index_ <= rule.window_hi;
                break;
            }
            if (!fires) {
                continue;
            }
            ++fired_[i];
            ++injected_;
            switch (rule.action) {
              case FaultAction::kTransient:
                status = StorageStatus::transient_error(point);
                break;
              case FaultAction::kPermanent:
                status = StorageStatus::permanent_error(point);
                break;
              case FaultAction::kStall:
                stall_seconds = rule.stall_seconds;
                break;
              case FaultAction::kDrop:
                // A drop is retryable from the sender's point of view:
                // resend after the ack deadline.
                status = StorageStatus::transient_error(point);
                break;
              case FaultAction::kNodeLoss:
                ++node_losses_;
                node_loss = node_loss_handler_;
                // The loss is observed by the op itself: the handler
                // kills the device/NIC, and the killed component fails
                // this very op (FaultyStorage dead check, SimNetwork
                // alive check run after on_op returns).
                break;
              case FaultAction::kBitflip:
                // The op "succeeds" — latent corruption is silent at
                // the device level and only CRC checks can surface it.
                bitflip_mask = rule.bitflip_mask;
                break;
              case FaultAction::kUnreadable:
                // Unreadable sector: retrying the same LBA keeps
                // failing, so this is the permanent class.
                status = StorageStatus::permanent_error(point);
                break;
              case FaultAction::kKillTenant:
                ++tenant_kills_;
                if (kill_tenant_handler_) {
                    kill_target = [handler = kill_tenant_handler_,
                                   id = rule.target] { handler(id); };
                }
                break;
              case FaultAction::kKillBackend:
                ++backend_kills_;
                if (kill_backend_handler_) {
                    kill_target = [handler = kill_backend_handler_,
                                   id = rule.target] { handler(id); };
                }
                break;
            }
            break;  // first firing rule wins
        }
    }
    // Side effects run outside the lock: the node-loss handler kills
    // devices (their own mutexes), and a stall must not serialize
    // every other fault point behind this op.
    if (node_loss) {
        node_loss();
    }
    if (kill_target) {
        kill_target();
    }
    if (stall_seconds > 0.0) {
        backoff_sleep(stall_seconds);
    }
    return FaultOutcome{status, bitflip_mask};
}

std::uint64_t
FaultInjector::ops() const
{
    MutexLock lock(mu_);
    return op_index_;
}

std::uint64_t
FaultInjector::injected() const
{
    MutexLock lock(mu_);
    return injected_;
}

std::uint64_t
FaultInjector::node_losses() const
{
    MutexLock lock(mu_);
    return node_losses_;
}

std::uint64_t
FaultInjector::tenant_kills() const
{
    MutexLock lock(mu_);
    return tenant_kills_;
}

std::uint64_t
FaultInjector::backend_kills() const
{
    MutexLock lock(mu_);
    return backend_kills_;
}

}  // namespace pccheck
