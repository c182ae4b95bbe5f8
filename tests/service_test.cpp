/**
 * @file
 * Tests for the multi-tenant accelerator service: admission control,
 * priority / weighted-fair scheduling, per-tenant accounting, the
 * board column cache, and a threaded soak that must be bit-identical
 * to sequential execution (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "service/service.h"

namespace genesis::service {
namespace {

/** Build fn: sum `values` (input cached under `key` when non-empty). */
JobBuild
sumJob(std::string key, std::vector<int64_t> values)
{
    return [key = std::move(key),
            values = std::move(values)](JobContext &ctx) {
        std::vector<uint32_t> lens(values.size(), 1);
        auto *in = ctx.input(key, values, lens, 4);
        auto *out = ctx.output("SUM", 8);
        auto &sim = ctx.sim();
        auto *q = sim.makeQueue("q");
        auto *sum_q = sim.makeQueue("sum");
        sim.make<modules::MemoryReader>("rd", in,
                                        sim.memory().makePort(0), q,
                                        modules::MemoryReaderConfig{});
        modules::ReducerConfig red;
        red.op = modules::ReduceOp::Sum;
        sim.make<modules::Reducer>("red", q, sum_q, red);
        modules::MemoryWriterConfig wr;
        sim.make<modules::MemoryWriter>(
            "wr", out, sim.memory().makePort(0), sum_q, wr);
    };
}

int64_t
hostSum(const std::vector<int64_t> &values)
{
    return std::accumulate(values.begin(), values.end(), int64_t{0});
}

/** Small single-slot service config for deterministic scheduling. */
ServiceConfig
singleSlotConfig()
{
    ServiceConfig cfg;
    cfg.numBoards = 1;
    cfg.slotsPerBoard = 1;
    return cfg;
}

TEST(Service, RunsOneJobEndToEnd)
{
    AcceleratorService service(singleSlotConfig());
    JobRequest req;
    req.tenant = "alice";
    req.build = sumJob("", {5, 6, 7});
    Admission admission = service.submit(std::move(req));
    ASSERT_TRUE(admission.accepted) << admission.reason;

    JobResult result = admission.result.get();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].name, "SUM");
    ASSERT_EQ(result.outputs[0].elements.size(), 1u);
    EXPECT_EQ(result.outputs[0].elements[0], 18);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.timing.accelSeconds, 0.0);
    EXPECT_GT(result.dollars, 0.0);
    EXPECT_EQ(result.board, 0);
}

TEST(Service, FailedJobReportsErrorAndServiceSurvives)
{
    AcceleratorService service(singleSlotConfig());
    JobRequest bad;
    bad.build = [](JobContext &ctx) {
        ctx.input("", {1}, {1}, 4); // uploads, then fails
        fatal("broken job build");
    };
    JobResult failed = service.submit(std::move(bad)).result.get();
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("broken job build"), std::string::npos);

    // The failed job's device footprint was retired; new jobs run.
    JobRequest good;
    good.build = sumJob("", {1, 2, 3});
    JobResult ok = service.submit(std::move(good)).result.get();
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.outputs[0].elements[0], 6);

    auto usage = service.usage();
    ASSERT_EQ(usage.size(), 1u);
    EXPECT_EQ(usage[0].failed, 1u);
    EXPECT_EQ(usage[0].completed, 1u);
}

TEST(Service, DeadlockedJobFailsAndServiceSurvives)
{
    setQuiet(true);
    AcceleratorService service(singleSlotConfig());
    JobRequest wedged;
    wedged.build = [](JobContext &ctx) {
        // A Reducer whose input nobody writes or closes deadlocks.
        auto &sim = ctx.sim();
        sim.make<modules::Reducer>("red", sim.makeQueue("in"),
                                   sim.makeQueue("out"),
                                   modules::ReducerConfig{});
    };
    JobResult failed = service.submit(std::move(wedged)).result.get();
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("deadlock"), std::string::npos)
        << failed.error;

    JobRequest good;
    good.build = sumJob("", {4, 5});
    JobResult ok = service.submit(std::move(good)).result.get();
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.outputs[0].elements[0], 9);
    setQuiet(false);
}

TEST(Service, StoppedServiceRejectsSubmissions)
{
    AcceleratorService service(singleSlotConfig());
    service.stop();
    JobRequest req;
    req.build = sumJob("", {1});
    Admission admission = service.submit(std::move(req));
    EXPECT_FALSE(admission.accepted);
    EXPECT_EQ(admission.reason, "service stopped");
    EXPECT_EQ(service.rejectedJobs(), 1u);
}

/** Job whose build blocks until released (to hold the only slot). */
struct Blocker {
    std::atomic<bool> running{false};
    std::atomic<bool> release{false};

    JobBuild
    build()
    {
        return [this](JobContext &ctx) {
            running = true;
            while (!release)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            sumJob("", {1})(ctx);
        };
    }

    void
    waitUntilRunning()
    {
        while (!running)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
};

TEST(Service, FullQueueRejectsWithReason)
{
    ServiceConfig cfg = singleSlotConfig();
    cfg.queueCapacity = 2;
    AcceleratorService service(cfg);

    Blocker blocker;
    JobRequest holder;
    holder.build = blocker.build();
    Admission held = service.submit(std::move(holder));
    ASSERT_TRUE(held.accepted);
    blocker.waitUntilRunning(); // slot busy, queue empty

    for (int i = 0; i < 2; ++i) {
        JobRequest req;
        req.build = sumJob("", {i});
        ASSERT_TRUE(service.submit(std::move(req)).accepted);
    }
    JobRequest overflow;
    overflow.tenant = "bob";
    overflow.build = sumJob("", {9});
    Admission rejected = service.submit(std::move(overflow));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reason, "queue full (capacity 2)");

    blocker.release = true;
    service.drain();
    EXPECT_EQ(service.rejectedJobs(), 1u);
    for (const auto &usage : service.usage()) {
        if (usage.tenant == "bob") {
            EXPECT_EQ(usage.rejected, 1u);
        }
    }
    ASSERT_TRUE(held.result.get().ok);
}

TEST(Service, PriorityJobsDispatchFirst)
{
    ServiceConfig cfg = singleSlotConfig();
    cfg.policy = SchedPolicy::Priority;
    AcceleratorService service(cfg);

    Blocker blocker;
    JobRequest holder;
    holder.build = blocker.build();
    service.submit(std::move(holder));
    blocker.waitUntilRunning();

    std::mutex order_mutex;
    std::vector<int> order;
    auto tagged = [&](int tag) {
        return [&, tag](JobContext &ctx) {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(tag);
            }
            sumJob("", {tag})(ctx);
        };
    };
    JobRequest low;
    low.priority = 0;
    low.build = tagged(0);
    JobRequest high;
    high.priority = 5;
    high.build = tagged(1);
    service.submit(std::move(low));
    service.submit(std::move(high));

    blocker.release = true;
    service.drain();
    ASSERT_EQ(order.size(), 2u);
    // The high-priority job jumped the earlier low-priority one.
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 0);
}

TEST(Service, WeightedFairSharesTrackTenantWeights)
{
    ServiceConfig cfg = singleSlotConfig();
    cfg.policy = SchedPolicy::WeightedFair;
    AcceleratorService service(cfg);
    service.setTenantWeight("light", 1.0);
    service.setTenantWeight("heavy", 4.0);

    Blocker blocker;
    JobRequest holder;
    holder.build = blocker.build();
    service.submit(std::move(holder));
    blocker.waitUntilRunning();

    std::mutex order_mutex;
    std::vector<std::string> order;
    auto tagged = [&](std::string tenant) {
        JobRequest req;
        req.tenant = tenant;
        req.costHint = 1.0;
        req.build = [&, tenant](JobContext &ctx) {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(tenant);
            }
            sumJob("", {1})(ctx);
        };
        return req;
    };
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(service.submit(tagged("light")).accepted);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(service.submit(tagged("heavy")).accepted);

    blocker.release = true;
    service.drain();
    ASSERT_EQ(order.size(), 20u);
    // Start-time fair queueing: in the first 10 dispatches the
    // weight-4 tenant gets 4x the slots of the weight-1 tenant.
    size_t heavy_in_first_10 = 0;
    for (size_t i = 0; i < 10; ++i)
        heavy_in_first_10 += order[i] == "heavy";
    EXPECT_EQ(heavy_in_first_10, 8u);
}

TEST(Service, CacheWarmReuseSkipsDma)
{
    ServiceConfig cfg = singleSlotConfig();
    AcceleratorService service(cfg);
    std::vector<int64_t> data(512);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<int64_t>(i) - 250;

    JobRequest cold;
    cold.build = sumJob("tbl.VALS", data);
    JobResult cold_result = service.submit(std::move(cold)).result.get();
    ASSERT_TRUE(cold_result.ok) << cold_result.error;
    EXPECT_EQ(cold_result.cacheMisses, 1u);
    EXPECT_GT(cold_result.timing.dmaSeconds, 0.0);

    JobRequest warm;
    warm.build = sumJob("tbl.VALS", data);
    JobResult warm_result = service.submit(std::move(warm)).result.get();
    ASSERT_TRUE(warm_result.ok) << warm_result.error;
    EXPECT_EQ(warm_result.cacheHits, 1u);
    // Warm job's only DMA is the output flush-back; the input DMA-in
    // (the dominant transfer) is gone.
    EXPECT_LT(warm_result.timing.dmaSeconds,
              cold_result.timing.dmaSeconds);
    // Bit-identical results on hit vs miss.
    ASSERT_EQ(warm_result.outputs.size(), cold_result.outputs.size());
    EXPECT_EQ(warm_result.outputs[0].elements,
              cold_result.outputs[0].elements);
    EXPECT_EQ(warm_result.outputs[0].elements[0], hostSum(data));
}

TEST(Service, MultiTenantSoakMatchesSequentialGolden)
{
    // Many client threads x tenants x rounds against a 2-board fleet;
    // every job's output must equal the host-computed golden sum, and
    // the ledgers must balance. Runs under TSan in CI.
    ServiceConfig cfg;
    cfg.numBoards = 2;
    cfg.slotsPerBoard = 2;
    cfg.queueCapacity = 256;
    AcceleratorService service(cfg);

    constexpr int kClients = 4;
    constexpr int kJobsPerClient = 8;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                std::vector<int64_t> data(64);
                for (size_t i = 0; i < data.size(); ++i)
                    data[i] = c * 1000 + j * 37 +
                        static_cast<int64_t>(i) - 32;
                // Half the jobs share cached chunks, half upload.
                std::string key = j % 2 == 0
                    ? "chunk" + std::to_string(j / 2)
                    : "";
                JobRequest req;
                req.tenant = "tenant" + std::to_string(c);
                req.costHint = static_cast<double>(data.size());
                // Cached chunks must carry chunk-determined data (the
                // keying contract); keyless jobs use private data.
                std::vector<int64_t> payload = key.empty()
                    ? data
                    : std::vector<int64_t>(64, j / 2 + 1);
                req.build = sumJob(key, payload);
                Admission admission = service.submit(std::move(req));
                ASSERT_TRUE(admission.accepted) << admission.reason;
                JobResult result = admission.result.get();
                if (!result.ok) {
                    ++failures;
                    continue;
                }
                if (result.outputs[0].elements[0] != hostSum(payload))
                    ++mismatches;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    service.drain();

    EXPECT_EQ(failures, 0);
    EXPECT_EQ(mismatches, 0);
    auto cache = service.cacheStats();
    EXPECT_GT(cache.hits, 0u);

    // Per-tenant accounting sums to the fleet total.
    double tenant_accel = 0.0;
    size_t completed = 0;
    for (const auto &usage : service.usage()) {
        tenant_accel += usage.accelSeconds;
        completed += usage.completed;
    }
    EXPECT_EQ(completed,
              static_cast<size_t>(kClients) * kJobsPerClient);
    EXPECT_NEAR(tenant_accel, service.fleetAccelSeconds(),
                1e-12 + 1e-9 * service.fleetAccelSeconds());
    EXPECT_GT(service.fleetDollars(), 0.0);
}

TEST(ServiceConfigEnv, OverridesApply)
{
    setenv("GENESIS_SERVICE_BOARDS", "3", 1);
    setenv("GENESIS_SERVICE_SLOTS", "5", 1);
    setenv("GENESIS_SERVICE_QUEUE_CAP", "9", 1);
    setenv("GENESIS_SERVICE_CACHE_MB", "128", 1);
    // A boolean flag set to 0 means off, like every other escape hatch.
    setenv("GENESIS_SERVICE_NO_CACHE", "0", 1);
    ServiceConfig cfg = ServiceConfig::fromEnv();
    unsetenv("GENESIS_SERVICE_BOARDS");
    unsetenv("GENESIS_SERVICE_SLOTS");
    unsetenv("GENESIS_SERVICE_QUEUE_CAP");
    unsetenv("GENESIS_SERVICE_CACHE_MB");
    unsetenv("GENESIS_SERVICE_NO_CACHE");
    EXPECT_EQ(cfg.numBoards, 3);
    EXPECT_EQ(cfg.slotsPerBoard, 5);
    EXPECT_EQ(cfg.queueCapacity, 9u);
    EXPECT_EQ(cfg.cacheCapacityBytes, 128ull << 20);
    EXPECT_TRUE(cfg.enableCache);

    setenv("GENESIS_SERVICE_NO_CACHE", "1", 1);
    ServiceConfig no_cache = ServiceConfig::fromEnv();
    unsetenv("GENESIS_SERVICE_NO_CACHE");
    EXPECT_FALSE(no_cache.enableCache);
}

TEST(ServiceConfigEnv, MalformedValuesFallBackLoudlyNotSilently)
{
    // GENESIS_SERVICE_BOARDS=4x used to parse as 4 via atoll; it now
    // warns and keeps the default. Zero boards is likewise rejected
    // (the knob's minimum is 1), not honored into an unusable fleet.
    setQuiet(true);
    ServiceConfig defaults;
    setenv("GENESIS_SERVICE_BOARDS", "4x", 1);
    setenv("GENESIS_SERVICE_SLOTS", "abc", 1);
    setenv("GENESIS_SERVICE_QUEUE_CAP", "0", 1);
    ServiceConfig cfg = ServiceConfig::fromEnv();
    unsetenv("GENESIS_SERVICE_BOARDS");
    unsetenv("GENESIS_SERVICE_SLOTS");
    unsetenv("GENESIS_SERVICE_QUEUE_CAP");
    setQuiet(false);
    EXPECT_EQ(cfg.numBoards, defaults.numBoards);
    EXPECT_EQ(cfg.slotsPerBoard, defaults.slotsPerBoard);
    EXPECT_EQ(cfg.queueCapacity, defaults.queueCapacity);
}

} // namespace
} // namespace genesis::service
