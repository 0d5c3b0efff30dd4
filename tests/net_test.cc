/**
 * @file
 * Tests for the simulated cluster network: bandwidth pacing, latency,
 * mailboxes, and multi-node messaging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include "net/network.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace pccheck {
namespace {

NetworkConfig
config(int nodes, double bw, Seconds latency = 0)
{
    NetworkConfig cfg;
    cfg.nodes = nodes;
    cfg.nic_bytes_per_sec = bw;
    cfg.latency = latency;
    return cfg;
}

TEST(SimNetworkTest, TransferPaysBandwidth)
{
    SimNetwork net(config(2, 10e6));
    Stopwatch watch;
    net.transfer(0, 1, 200'000);  // ~20 ms at 10 MB/s
    EXPECT_GE(watch.elapsed(), 0.015);
    EXPECT_EQ(net.bytes_moved(), 200'000u);
}

TEST(SimNetworkTest, TransferPaysLatency)
{
    SimNetwork net(config(2, 0, 0.01));
    Stopwatch watch;
    net.transfer(0, 1, 1);
    EXPECT_GE(watch.elapsed(), 0.008);
}

TEST(SimNetworkTest, SelfTransferSkipsNic)
{
    SimNetwork net(config(2, 1e3));  // 1 KB/s — would take forever
    Stopwatch watch;
    net.transfer(0, 0, 100'000);
    EXPECT_LT(watch.elapsed(), 0.1);
}

TEST(SimNetworkTest, MailboxDeliversInOrder)
{
    SimNetwork net(config(2, 0));
    net.send_msg(0, 1, 10);
    net.send_msg(0, 1, 20);
    EXPECT_EQ(net.recv_msg(1).tag, 10u);
    EXPECT_EQ(net.recv_msg(1).tag, 20u);
}

TEST(SimNetworkTest, TryRecvNonBlocking)
{
    SimNetwork net(config(2, 0));
    NetMessage msg;
    EXPECT_FALSE(net.try_recv_msg(0, &msg));
    net.send_msg(1, 0, 7, {1, 2, 3});
    EXPECT_TRUE(net.try_recv_msg(0, &msg));
    EXPECT_EQ(msg.from, 1);
    EXPECT_EQ(msg.tag, 7u);
    EXPECT_EQ(msg.payload.size(), 3u);
}

TEST(SimNetworkTest, BlockingRecvWakesOnSend)
{
    SimNetwork net(config(2, 0));
    std::thread receiver([&net] {
        const NetMessage msg = net.recv_msg(1);
        EXPECT_EQ(msg.tag, 42u);
    });
    MonotonicClock::instance().sleep_for(0.005);
    net.send_msg(0, 1, 42);
    receiver.join();
}

TEST(SimNetworkTest, SendersShareEgressNic)
{
    SimNetwork net(config(3, 10e6));
    Stopwatch watch;
    std::thread a([&net] { net.transfer(0, 1, 100'000); });
    std::thread b([&net] { net.transfer(0, 2, 100'000); });
    a.join();
    b.join();
    // Both leave node 0: the shared egress NIC makes this ~20 ms.
    EXPECT_GE(watch.elapsed(), 0.015);
}

TEST(NetworkSharingTest, ConcurrentTransfersShareTheChannel)
{
    SimNetwork network(config(4, 20e6));
    const Bytes len = kMiB;  // ~52 ms per NIC at 20 MB/s

    Stopwatch single;
    network.transfer(0, 1, len);
    const Seconds alone = single.elapsed();
    ASSERT_GT(alone, 0.0);

    // Three transfers leave node 0 together. The egress NIC paces in
    // 256 KiB turns, so all three interleave there (processor sharing)
    // and then each pays its own receiver's ingress.
    std::vector<Seconds> elapsed(3, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&network, &elapsed, len, t] {
            Stopwatch watch;
            network.transfer(0, t + 1, len);
            elapsed[t] = watch.elapsed();
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    std::sort(elapsed.begin(), elapsed.end());
    // The egress NIC serialized 3 MiB of payload: the last finisher
    // reflects the full contended window.
    EXPECT_GT(elapsed[2], alone * 1.4);
    // All three shared the NIC, so they finish one egress turn apart.
    // FIFO would finish them a whole egress leg (~0.5 alone) apart.
    EXPECT_LT(elapsed[2] - elapsed[1], alone * 0.25);
    EXPECT_LT(elapsed[2] - elapsed[0], alone * 0.4);
}

TEST(NetworkConfigTest, ValidateRejectsNonFiniteOrNegativeBandwidth)
{
    NetworkConfig cfg;
    EXPECT_TRUE(cfg.validate().ok());
    cfg.nic_bytes_per_sec = 0;  // unthrottled
    EXPECT_TRUE(cfg.validate().ok());
    // Each would otherwise abort in the NIC throttle's constructor
    // (NaN) or pace nothing while claiming a bandwidth (infinity).
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1.0}) {
        cfg.nic_bytes_per_sec = bad;
        EXPECT_FALSE(cfg.validate().ok()) << bad;
    }
}

TEST(NetworkConfigTest, ValidateRejectsNonFiniteOrNegativeLatency)
{
    NetworkConfig cfg;
    cfg.latency = 0;
    EXPECT_TRUE(cfg.validate().ok());
    // NaN slips past `< 0`; either would make every transfer sleep an
    // undefined or endless time.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1e-6}) {
        cfg.latency = bad;
        EXPECT_FALSE(cfg.validate().ok()) << bad;
    }
}

TEST(SimNetworkTest, InvalidNodeAborts)
{
    SimNetwork net(config(2, 0));
    EXPECT_DEATH(net.transfer(0, 5, 1), "invalid node");
}

TEST(SimNetworkTest, RecvForReturnsQueuedMessageImmediately)
{
    SimNetwork net(config(2, 0));
    net.send_msg(0, 1, 5, {9});
    const auto msg = net.recv_msg_for(1, 0.5);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->tag, 5u);
    EXPECT_EQ(msg->payload.size(), 1u);
}

TEST(SimNetworkTest, RecvForTimesOutOnSilence)
{
    SimNetwork net(config(2, 0));
    Stopwatch watch;
    const auto msg = net.recv_msg_for(0, 0.02);
    EXPECT_FALSE(msg.has_value());
    // The deadline is against the modeled clock, so the wait is
    // bounded: well past the timeout, well under a blocking hang.
    EXPECT_GE(watch.elapsed(), 0.015);
    EXPECT_LT(watch.elapsed(), 1.0);
}

TEST(SimNetworkTest, RecvForWakesOnLateSend)
{
    SimNetwork net(config(2, 0));
    std::thread receiver([&net] {
        const auto msg = net.recv_msg_for(1, 5.0);
        ASSERT_TRUE(msg.has_value());
        EXPECT_EQ(msg->tag, 42u);
        EXPECT_EQ(msg->from, 0);
    });
    MonotonicClock::instance().sleep_for(0.005);
    net.send_msg(0, 1, 42);
    receiver.join();
}

}  // namespace
}  // namespace pccheck
