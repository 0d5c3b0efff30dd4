#include "service/qos.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace pccheck {

AdmissionController::AdmissionController(const QosConfig& config,
                                         const Clock& clock)
    : config_(config), clock_(clock)
{
    if (config_.enabled) {
        PCCHECK_CHECK_MSG(config_.device_budget_bytes_per_sec > 0,
                      "AdmissionController: QoS needs a positive budget");
    }
}

void AdmissionController::rebalance_locked()
{
    double total_weight = 0;
    for (const auto& [id, tenant] : tenants_) {
        total_weight += tenant.weight;
    }
    if (total_weight <= 0) {
        return;
    }
    for (auto& [id, tenant] : tenants_) {
        tenant.bucket->set_rate(config_.device_budget_bytes_per_sec *
                                tenant.weight / total_weight);
    }
}

void AdmissionController::register_tenant(std::uint64_t tenant,
                                          double weight, Bytes state_bytes)
{
    PCCHECK_CHECK_MSG(weight > 0, "AdmissionController: weight must be > 0");
    const Bytes burst = config_.burst_bytes != 0
                            ? config_.burst_bytes
                            : std::max<Bytes>(2 * state_bytes, 1);
    MutexLock lock(mu_);
    Tenant& slot = tenants_[tenant];
    slot.weight = weight;
    if (!slot.bucket || slot.bucket->capacity() != burst) {
        // Rate is set by the rebalance below; 0 until then.
        slot.bucket = std::make_unique<TokenBucket>(0.0, burst, clock_);
    }
    rebalance_locked();
}

void AdmissionController::remove_tenant(std::uint64_t tenant)
{
    MutexLock lock(mu_);
    tenants_.erase(tenant);
    rebalance_locked();
}

bool AdmissionController::admit(std::uint64_t tenant, Bytes bytes)
{
    static Counter& admitted =
        MetricsRegistry::global().counter("pccheck.service.admitted");
    static Counter& rejected =
        MetricsRegistry::global().counter("pccheck.service.rejected");
    bool ok;
    {
        MutexLock lock(mu_);
        auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            rejected.add();
            return false;
        }
        ok = !config_.enabled || it->second.bucket->try_consume(bytes);
        if (ok) {
            ++it->second.stats.admitted;
        } else {
            ++it->second.stats.rejected;
        }
    }
    (ok ? admitted : rejected).add();
    return ok;
}

AdmissionStats AdmissionController::stats(std::uint64_t tenant) const
{
    MutexLock lock(mu_);
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? AdmissionStats{} : it->second.stats;
}

AdmissionStats AdmissionController::totals() const
{
    MutexLock lock(mu_);
    AdmissionStats total;
    for (const auto& [id, tenant] : tenants_) {
        total.admitted += tenant.stats.admitted;
        total.rejected += tenant.stats.rejected;
    }
    return total;
}

}  // namespace pccheck
