#ifndef PCCHECK_TESTS_SWEEP_SUPPORT_H_
#define PCCHECK_TESTS_SWEEP_SUPPORT_H_

/**
 * @file
 * Helpers the seed sweeps share: the seed count, the psan-clean
 * assertion, the crash-point check and the small training setup.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "psan/psan.h"
#include "storage/crash_capture.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"

namespace pccheck {

/** Seeds to run: @p env when set to a positive count, else
 *  @p fallback. */
inline int
sweep_seeds(const char* env, int fallback)
{
    const char* value = std::getenv(env);
    if (value != nullptr && std::atoi(value) > 0) {
        return std::atoi(value);
    }
    return fallback;
}

/**
 * Asserts the enclosing scope reported no psan violations
 * (docs/PSAN.md). Vacuous when the sanitizer is off; under
 * PCCHECK_PSAN=1 every seed of a sweep must run contract-clean.
 */
class PsanCleanGuard {
  public:
    PsanCleanGuard() : before_(psan::Runtime::global().violation_count()) {}
    ~PsanCleanGuard()
    {
        EXPECT_EQ(psan::Runtime::global().violation_count(), before_)
            << "sweep must be psan-clean";
    }

  private:
    std::uint64_t before_;
};

/**
 * Whether @p point is a state its own run reached at or after its
 * mark: the sampler attached when the device had applied @p mark ops
 * (read by the sweep), and the point is the state then or one an op
 * since left.
 */
inline bool
is_own_crash_point(const CrashPoint& point, std::size_t mark)
{
    return point.mark == mark && point.state.op_index >= mark &&
           point.state.op_index < mark + point.states;
}

/** A device holding @p image, as a process restarted after the crash
 *  finds it. */
inline std::unique_ptr<MemStorage>
reboot(const std::vector<std::uint8_t>& image)
{
    auto dead = std::make_unique<MemStorage>(image.size());
    std::memcpy(dead->raw(), image.data(), image.size());
    return dead;
}

/** A GPU with room for the sweeps' small states and no PCIe pacing. */
inline GpuConfig
fast_gpu()
{
    GpuConfig config;
    config.memory_bytes = 2 * kMiB;
    config.pcie_bytes_per_sec = 0;
    return config;
}

/** VGG-16 scaled down to milliseconds per iteration. */
inline ScaledModel
tiny_model()
{
    return scale_model(model_by_name("vgg16"),
                       ScaleFactors{600.0, 20000.0});
}

}  // namespace pccheck

#endif  // PCCHECK_TESTS_SWEEP_SUPPORT_H_
