/**
 * @file
 * pccheck-psan test suite (docs/PSAN.md):
 *  - shadow state machine behavior observable through the V4
 *    redundancy table (persist/fence accounting per device kind);
 *  - meta-mutations: one deliberately broken ordering per rule, each
 *    asserting the rule fires with its stable diagnostic —
 *      V1 fence drop before publish        (ack-before-payload)
 *      V1 seal reorder in the delta tier   (ack-before-payload)
 *      V1 early watermark advance          (ack-before-payload)
 *      V2 publish/seal without durability  (missing-fence)
 *      V3 live-slot / sealed-frame overwrite (lost-update)
 *      V5 recovery read of a nondurable line (nondurable-read)
 *  - faithful sequences through the real SlotStore/recovery paths
 *    stay psan-clean;
 *  - the orchestrator interposes PsanStorage from config.psan and a
 *    full train → recover cycle runs clean under it;
 *  - observe-hook forwarding through a decorator stack ends at the
 *    leaf (the contract pccheck_lint rule
 *    storage-decorator-forwards-hooks guards statically).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "psan/psan.h"
#include "psan/psan_storage.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "storage/throttled_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

using psan::Rule;
using psan::Runtime;
using psan::Violation;

/** Switches the runtime to collect mode and drains stale records. */
class PsanTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        Runtime::global().set_trap(Runtime::Trap::kCollect);
        Runtime::global().take_violations();
    }

    void TearDown() override
    {
        // A test that expected violations must have drained them; a
        // leftover record means an unasserted (or unexpected) report.
        const auto leaked = Runtime::global().take_violations();
        for (const Violation& v : leaked) {
            ADD_FAILURE() << "undrained psan violation: " << v.to_string();
        }
    }

    static std::vector<Violation> drain()
    {
        return Runtime::global().take_violations();
    }

    /** The single collected violation, asserted to match. */
    static void expect_one(Rule rule, const std::string& needle)
    {
        const auto violations = drain();
        ASSERT_EQ(violations.size(), 1u)
            << "expected exactly one violation";
        EXPECT_EQ(violations[0].rule, rule);
        EXPECT_NE(violations[0].message.find(needle), std::string::npos)
            << "message: " << violations[0].message;
    }

    static psan::RedundancyStats stats_for(const std::string& label)
    {
        for (const auto& [name, stats] :
             Runtime::global().redundancy_table()) {
            if (name == label) {
                return stats;
            }
        }
        return psan::RedundancyStats{};
    }
};

constexpr Bytes kDev = 64 * 1024;

// ------------------------------------------------------- state machine / V4

TEST_F(PsanTest, PmemPersistFenceLifecycleAndRedundancyCounts)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    std::uint8_t buf[256] = {};

    psan::ScopeLabel label("test.v4_pmem");
    PCCHECK_MUST(device.write(0, buf, 256));
    // First persist flushes 4 Dirty cache lines: useful.
    PCCHECK_MUST(device.persist(0, 256));
    // Second persist over the same (now FlushPending) range: redundant.
    PCCHECK_MUST(device.persist(0, 256));
    PCCHECK_MUST(device.fence());
    // Fence with nothing pending anywhere: redundant.
    PCCHECK_MUST(device.fence());

    const auto stats = stats_for("test.v4_pmem");
    EXPECT_EQ(stats.persist_ops, 2u);
    EXPECT_EQ(stats.redundant_persist_ops, 1u);
    EXPECT_EQ(stats.redundant_persist_lines, 4u);
    EXPECT_EQ(stats.fence_ops, 2u);
    EXPECT_EQ(stats.redundant_fences, 1u);
    EXPECT_TRUE(drain().empty());  // V4 is stats-only, never a violation
}

TEST_F(PsanTest, SsdPersistCommitsDirectlyAndFencesAreNeverCounted)
{
    CrashSimStorage inner(kDev, StorageKind::kSsdMsync, 1);
    PsanStorage device(inner);
    EXPECT_EQ(device.line_size(), 4096u);
    std::uint8_t buf[64] = {};

    psan::ScopeLabel label("test.v4_ssd");
    PCCHECK_MUST(device.write(0, buf, 64));
    PCCHECK_MUST(device.persist(0, 64));   // Dirty → Durable, no fence
    PCCHECK_MUST(device.persist(0, 64));   // redundant: already durable
    PCCHECK_MUST(device.fence());          // inherent no-op on SSD

    const auto stats = stats_for("test.v4_ssd");
    EXPECT_EQ(stats.persist_ops, 2u);
    EXPECT_EQ(stats.redundant_persist_ops, 1u);
    EXPECT_EQ(stats.fence_ops, 0u);  // SSD fences are never V4 material
    EXPECT_TRUE(drain().empty());
}

TEST_F(PsanTest, RewriteReDirtiesSoNextPersistIsUseful)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    std::uint8_t buf[64] = {};

    psan::ScopeLabel label("test.v4_redirty");
    PCCHECK_MUST(device.write(0, buf, 64));
    PCCHECK_MUST(device.persist(0, 64));
    PCCHECK_MUST(device.fence());
    PCCHECK_MUST(device.write(0, buf, 64));  // Durable → Dirty again
    PCCHECK_MUST(device.persist(0, 64));

    const auto stats = stats_for("test.v4_redirty");
    EXPECT_EQ(stats.persist_ops, 2u);
    EXPECT_EQ(stats.redundant_persist_ops, 0u);
    EXPECT_TRUE(drain().empty());
}

// ------------------------------------------------- V1: fence drop / reorder

TEST_F(PsanTest, MutationFenceDropBeforePublishFiresV1)
{
    // Real protocol objects, one broken ordering: the slot data is
    // written and persisted but the fence is DROPPED, so the payload
    // is still FlushPending when the pointer record publishes.
    CrashSimStorage inner(SlotStore::required_size(3, 4096),
                          StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    SlotStore store = SlotStore::format(device, 3, 4096);
    ASSERT_EQ(store.psan(), &device);

    std::vector<std::uint8_t> data(4096, 0xab);
    PCCHECK_MUST(store.write_slot(0, 0, data.data(), data.size()));
    PCCHECK_MUST(store.persist_slot_range(0, 0, data.size()));
    // <-- device.fence() deliberately missing

    CheckpointPointer ptr;
    ptr.counter = 1;
    ptr.slot = 0;
    ptr.data_len = data.size();
    PCCHECK_MUST(store.publish_pointer(ptr));

    const auto violations = drain();
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, Rule::kV1AckBeforePayload);
    EXPECT_NE(violations[0].message.find("ack-before-payload"),
              std::string::npos);
    EXPECT_EQ(violations[0].label, "slot_store.publish");
}

TEST_F(PsanTest, MutationSealReorderFiresV1)
{
    // Delta-tier seal reorder: the header seal claims a frame whose
    // payload lines were never persisted.
    CrashSimStorage inner(kDev, StorageKind::kPmemClwb, 1);
    PsanStorage device(inner);
    std::uint8_t payload[128] = {};
    PCCHECK_MUST(device.write(1024, payload, 128));
    // Payload neither persisted nor fenced; the seal begins anyway.
    device.on_seal_begin(1024, 128);
    expect_one(Rule::kV1AckBeforePayload, "delta frame seal");
}

TEST_F(PsanTest, MutationEarlyWatermarkAdvanceFiresV1)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);

    // No checkpoint has durably published yet: any advance is early.
    device.on_watermark_advance(1);
    expect_one(Rule::kV1AckBeforePayload, "watermark advanced");

    // Publish counter 2 durably, then ack counter 3 early.
    std::uint8_t rec[64] = {};
    PCCHECK_MUST(device.write(64, rec, 64));
    PCCHECK_MUST(device.persist(64, 64));
    PCCHECK_MUST(device.fence());
    device.on_publish_durable(2, 64, 64, 4096, 64);
    EXPECT_EQ(device.last_published_counter(), 2u);
    device.on_watermark_advance(2);  // faithful: quorum at the publish
    EXPECT_TRUE(drain().empty());
    device.on_watermark_advance(3);
    expect_one(Rule::kV1AckBeforePayload, "ahead of the newest durable");
}

// ----------------------------------------------------- V2: missing fence

TEST_F(PsanTest, MutationPublishWithoutFenceFiresV2)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    std::uint8_t rec[64] = {};
    PCCHECK_MUST(device.write(64, rec, 64));
    PCCHECK_MUST(device.persist(64, 64));
    // Fence dropped: the record is FlushPending, not durable, when the
    // publish claims success.
    device.on_publish_durable(1, 64, 64, 4096, 64);
    expect_one(Rule::kV2MissingFence, "missing-fence");
}

TEST_F(PsanTest, MutationSealWithoutDurabilityFiresV2)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemClwb, 1);
    PsanStorage device(inner);
    std::uint8_t header[64] = {};
    PCCHECK_MUST(device.write(2048, header, 64));
    // Header never persisted: sealing it durable is a lie.
    device.on_seal_durable(2048, 192);
    expect_one(Rule::kV2MissingFence, "delta frame header");
}

// ------------------------------------------------------- V3: lost update

TEST_F(PsanTest, MutationLiveSlotOverwriteFiresV3)
{
    // Faithful publish through SlotStore, then a write into the slot
    // the newest durable checkpoint lives in.
    CrashSimStorage inner(SlotStore::required_size(3, 4096),
                          StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    SlotStore store = SlotStore::format(device, 3, 4096);

    std::vector<std::uint8_t> data(4096, 0xcd);
    PCCHECK_MUST(store.write_slot(1, 0, data.data(), data.size()));
    PCCHECK_MUST(store.persist_slot_range(1, 0, data.size()));
    PCCHECK_MUST(device.fence());
    CheckpointPointer ptr;
    ptr.counter = 1;
    ptr.slot = 1;
    ptr.data_len = data.size();
    PCCHECK_MUST(store.publish_pointer(ptr));
    EXPECT_TRUE(drain().empty());  // faithful sequence is psan-clean

    // Overwriting a DIFFERENT slot is the protocol's normal reuse.
    PCCHECK_MUST(store.write_slot(2, 0, data.data(), 64));
    EXPECT_TRUE(drain().empty());

    // Overwriting the live slot destroys the only durable checkpoint.
    PCCHECK_MUST(store.write_slot(1, 0, data.data(), 64));
    expect_one(Rule::kV3LostUpdate, "lost-update");
}

TEST_F(PsanTest, MutationSealedFrameOverwriteFiresV3UntilEpochReset)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    std::uint8_t buf[192] = {};
    PCCHECK_MUST(device.write(1024, buf, 192));
    PCCHECK_MUST(device.persist(1024, 192));
    PCCHECK_MUST(device.fence());
    device.on_seal_durable(1024, 192);
    EXPECT_TRUE(drain().empty());

    PCCHECK_MUST(device.write(1088, buf, 64));  // inside the sealed frame
    expect_one(Rule::kV3LostUpdate, "sealed delta frame");

    // After GC resets the epoch the space is legitimately reusable.
    device.on_epoch_reset();
    PCCHECK_MUST(device.write(1088, buf, 64));
    EXPECT_TRUE(drain().empty());
}

// --------------------------------------------------- V5: nondurable read

TEST_F(PsanTest, MutationRecoveryReadOfNondurableLineFiresV5)
{
    CrashSimStorage inner(kDev, StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    std::uint8_t buf[64] = {};
    PCCHECK_MUST(device.write(128, buf, 64));  // Dirty, never persisted

    {
        // Outside a recovery scope reads are unrestricted.
        PCCHECK_MUST(device.read(128, buf, 64));
        EXPECT_TRUE(drain().empty());
    }
    {
        psan::RecoveryScope scope;
        // Clean line: stable media content
        PCCHECK_MUST(device.read(0, buf, 64));
        EXPECT_TRUE(drain().empty());
        PCCHECK_MUST(device.read(128, buf, 64));
        expect_one(Rule::kV5NondurableRead, "nondurable-read");
    }
}

// ------------------------------------------------- faithful paths stay clean

TEST_F(PsanTest, FaithfulPublishRecoverCycleIsClean)
{
    CrashSimStorage inner(SlotStore::required_size(3, 4096),
                          StorageKind::kPmemNt, 1);
    PsanStorage device(inner);
    SlotStore store = SlotStore::format(device, 3, 4096);

    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7);
    }
    for (std::uint64_t counter = 1; counter <= 4; ++counter) {
        const auto slot = static_cast<std::uint32_t>(counter % 3);
        PCCHECK_MUST(store.write_slot(slot, 0, data.data(), data.size()));
        PCCHECK_MUST(store.persist_slot_range(slot, 0, data.size()));
        PCCHECK_MUST(device.fence());
        CheckpointPointer ptr;
        ptr.counter = counter;
        ptr.slot = slot;
        ptr.data_len = data.size();
        ptr.data_crc = crc32c(data.data(), data.size());
        PCCHECK_MUST(store.publish_pointer(ptr));
    }
    EXPECT_EQ(device.last_published_counter(), 4u);

    std::vector<std::uint8_t> out;
    const auto recovered = recover_to_buffer(device, &out);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->counter, 4u);
    EXPECT_EQ(out, data);
    EXPECT_TRUE(drain().empty());
}

TEST_F(PsanTest, OrchestratorInterposesFromConfigAndRunsClean)
{
    const std::uint64_t before = Runtime::global().violation_count();
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    const ScaledModel model =
        scale_model(model_by_name("vgg16"), ScaleFactors{600.0, 20000.0});
    constexpr Bytes kState = 16 * 1024;

    CrashSimStorage device(SlotStore::required_size(3, kState),
                           StorageKind::kPmemNt, 11, 0.5);
    {
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, kState);
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        config.psan = true;
        PCcheckCheckpointer checkpointer(state, device, config);
        // The caller's device is wrapped internally.
        ASSERT_NE(checkpointer.slot_store().psan(), nullptr);
        EXPECT_EQ(&checkpointer.slot_store().psan()->inner(), &device);
        TrainingLoop loop(gpu, state, model);
        loop.run(12, 3, checkpointer);
        checkpointer.finish();
    }
    {
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, kState);
        const auto recovered = recover_latest_into_state(device, state);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_GE(recovered->iteration, 3u);
    }
    // The full train → recover cycle reported nothing.
    EXPECT_EQ(Runtime::global().violation_count(), before);

    // With config.psan unset there is no interposition.
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.psan = false;
    PCcheckCheckpointer checkpointer(state, device, config);
    EXPECT_EQ(checkpointer.slot_store().psan(), nullptr);
    checkpointer.finish();
}

// ------------------------------------------------------ decorator plumbing

TEST_F(PsanTest, ObserveHookForwardsThroughDecoratorStackToLeaf)
{
    // PsanStorage → ThrottledStorage → CrashSimStorage: the hook set
    // on the outermost decorator must land on the leaf, so it sees
    // every op exactly once regardless of stacking.
    auto leaf = std::make_unique<CrashSimStorage>(
        kDev, StorageKind::kPmemNt, 1);
    auto throttled = std::make_unique<ThrottledStorage>(
        std::move(leaf), /*write_bytes_per_sec=*/0,
        /*persist_bytes_per_sec=*/0);
    PsanStorage device(std::move(throttled));

    std::vector<StorageOp::Kind> seen;
    device.set_observe_hook(
        [&seen](const StorageOp& op) { seen.push_back(op.kind); });

    std::uint8_t buf[64] = {};
    PCCHECK_MUST(device.write(0, buf, 64));
    PCCHECK_MUST(device.persist(0, 64));
    PCCHECK_MUST(device.fence());

    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], StorageOp::Kind::kWrite);
    EXPECT_EQ(seen[1], StorageOp::Kind::kPersist);
    EXPECT_EQ(seen[2], StorageOp::Kind::kFence);
    EXPECT_TRUE(drain().empty());
}

// ----------------------------------------------------------- enablement

TEST_F(PsanTest, EnvironmentOverridesCompiledDefault)
{
    const char* saved = std::getenv("PCCHECK_PSAN");
    const std::string saved_value = saved != nullptr ? saved : "";

    ASSERT_EQ(setenv("PCCHECK_PSAN", "1", 1), 0);
    EXPECT_TRUE(psan::psan_default_enabled());
    ASSERT_EQ(setenv("PCCHECK_PSAN", "0", 1), 0);
    EXPECT_FALSE(psan::psan_default_enabled());

    if (saved != nullptr) {
        setenv("PCCHECK_PSAN", saved_value.c_str(), 1);
    } else {
        unsetenv("PCCHECK_PSAN");
    }
}

TEST_F(PsanTest, ViolationToStringIsDeterministic)
{
    Violation v;
    v.rule = Rule::kV3LostUpdate;
    v.label = "slot_store.publish";
    v.op_index = 42;
    v.offset = 4096;
    v.len = 64;
    v.message = "lost-update: example";
    EXPECT_EQ(v.to_string(),
              "psan: V3 lost-update: example range=[4096,4160) "
              "label=slot_store.publish op=42");
}

}  // namespace
}  // namespace pccheck
