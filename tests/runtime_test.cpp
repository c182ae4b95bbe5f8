/**
 * @file
 * Tests for the host runtime: DMA model, device memory, accelerator
 * sessions with timing accounting, and the paper-literal API
 * (configure_mem / run_genesis / check_genesis / wait_genesis /
 * genesis_flush).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/trace.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "runtime/api.h"
#include "runtime/batch.h"
#include "table/column.h"

namespace genesis::runtime {
namespace {

TEST(Dma, TransferTimeScalesWithBytes)
{
    DmaConfig cfg = DmaConfig::pcie3();
    double one_mb = transferSeconds(cfg, 1 << 20);
    double two_mb = transferSeconds(cfg, 2 << 20);
    EXPECT_GT(two_mb, one_mb);
    EXPECT_NEAR(two_mb - cfg.perTransferLatency,
                2 * (one_mb - cfg.perTransferLatency), 1e-12);
    EXPECT_DOUBLE_EQ(transferSeconds(cfg, 0), 0.0);
}

TEST(Dma, Pcie4IsFaster)
{
    uint64_t bytes = 100 << 20;
    EXPECT_LT(transferSeconds(DmaConfig::pcie4(), bytes),
              transferSeconds(DmaConfig::pcie3(), bytes));
}

TEST(DeviceMemory, UploadDecodesColumn)
{
    DeviceMemory mem;
    table::Column col("POS", table::DataType::UInt32);
    col.appendScalar(100);
    col.appendScalar(258);
    auto *buf = mem.upload("POS", col);
    ASSERT_EQ(buf->elements.size(), 2u);
    EXPECT_EQ(buf->elements[0], 100);
    EXPECT_EQ(buf->elements[1], 258);
    EXPECT_EQ(buf->elemSizeBytes, 4u);
    EXPECT_EQ(buf->rowLengths, (std::vector<uint32_t>{1, 1}));
    EXPECT_FALSE(buf->isOutput);
}

TEST(DeviceMemory, AllocationsGetDistinctAlignedAddresses)
{
    DeviceMemory mem;
    auto *a = mem.allocate("a", 4);
    auto *b = mem.allocate("b", 4);
    EXPECT_NE(a->baseAddr, b->baseAddr);
    EXPECT_EQ(a->baseAddr % DeviceMemory::kAlignment, 0u);
    EXPECT_EQ(b->baseAddr % DeviceMemory::kAlignment, 0u);
    EXPECT_TRUE(a->isOutput);
}

TEST(DeviceMemory, FindByName)
{
    DeviceMemory mem;
    mem.allocate("x", 1);
    EXPECT_NE(mem.find("x"), nullptr);
    EXPECT_EQ(mem.find("y"), nullptr);
}

TEST(DeviceMemory, DuplicateUploadReplacesInPlace)
{
    DeviceMemory mem;
    auto *first = mem.upload("x", {1, 2, 3}, {1, 1, 1}, 8);
    const uint64_t used_after_first = mem.allocatedBytes();
    auto *second = mem.upload("x", {9}, {1}, 8);
    // Replace in place: module pointers to the buffer stay valid and
    // find() sees the fresh image, not a stale first upload.
    EXPECT_EQ(second, first);
    EXPECT_EQ(mem.find("x"), first);
    EXPECT_EQ(first->elements, (std::vector<int64_t>{9}));
    EXPECT_EQ(mem.buffers().size(), 1u);
    EXPECT_LE(mem.allocatedBytes(), used_after_first);
}

TEST(DeviceMemory, DuplicateAllocateReplacesInPlace)
{
    DeviceMemory mem;
    auto *first = mem.allocate("out", 4);
    first->appendRow({42});
    auto *second = mem.allocate("out", 8);
    EXPECT_EQ(second, first);
    EXPECT_TRUE(first->elements.empty());
    EXPECT_EQ(first->elemSizeBytes, 8u);
    EXPECT_EQ(mem.buffers().size(), 1u);
}

TEST(DeviceMemory, NegativeValuesRoundTripAtEveryElemSize)
{
    struct Case {
        table::DataType type;
        int64_t value;
    };
    const Case cases[] = {
        {table::DataType::UInt8, -1},
        {table::DataType::UInt16, -300},
        {table::DataType::UInt32, -70000},
        {table::DataType::Int64, -5000000000LL},
    };
    for (const auto &c : cases) {
        DeviceMemory mem;
        table::Column col("V", c.type);
        col.appendScalar(c.value);
        col.appendScalar(17);
        auto *buf = mem.upload("V", col);
        ASSERT_EQ(buf->elements.size(), 2u);
        // The device element type is int64: sub-8-byte elements must
        // sign-extend, not zero-extend into huge positives.
        EXPECT_EQ(buf->elements[0], c.value)
            << table::dataTypeName(c.type);
        EXPECT_EQ(buf->elements[1], 17) << table::dataTypeName(c.type);
    }
}

TEST(DeviceMemory, ZeroByteReservationsGetDistinctAddresses)
{
    DeviceMemory mem;
    auto *a = mem.allocate("a", 4, 0);
    auto *b = mem.allocate("b", 4, 0);
    EXPECT_NE(a->baseAddr, b->baseAddr);
    EXPECT_EQ(mem.allocatedBytes(), 2 * DeviceMemory::kAlignment);
    auto *c = mem.upload("c", {}, {}, 8); // zero-element column
    EXPECT_NE(c->baseAddr, a->baseAddr);
    EXPECT_NE(c->baseAddr, b->baseAddr);
}

TEST(DeviceMemory, ReserveOverflowFailsLoudly)
{
    DeviceMemory mem;
    EXPECT_THROW(
        mem.allocate("huge", 8, std::numeric_limits<uint64_t>::max()),
        FatalError);
}

TEST(DeviceMemory, CapacityIsEnforced)
{
    DeviceMemory mem(1 << 20); // 1 MB card
    EXPECT_THROW(mem.allocate("big", 8, 2 << 20), FatalError);
    mem.allocate("fits", 8, 1 << 20); // exactly the card
    EXPECT_THROW(mem.allocate("more", 8, 1), FatalError);
}

TEST(DeviceMemory, ReleasedSpaceIsReused)
{
    DeviceMemory mem(16 * DeviceMemory::kAlignment);
    auto *a = mem.allocate("a", 8, DeviceMemory::kAlignment);
    const uint64_t addr = a->baseAddr;
    mem.allocate("b", 8, DeviceMemory::kAlignment);
    ASSERT_TRUE(mem.release("a"));
    EXPECT_EQ(mem.find("a"), nullptr);
    auto *c = mem.allocate("c", 8, DeviceMemory::kAlignment);
    EXPECT_EQ(c->baseAddr, addr); // first fit reuses the freed hole
    EXPECT_EQ(c->baseAddr % DeviceMemory::kAlignment, 0u);
    EXPECT_FALSE(mem.release("never-existed"));
}

TEST(DeviceMemory, FreedNeighboursCoalesceForLargerAllocations)
{
    DeviceMemory mem(4 * DeviceMemory::kAlignment);
    mem.allocate("a", 8, DeviceMemory::kAlignment);
    mem.allocate("b", 8, DeviceMemory::kAlignment);
    mem.allocate("c", 8, DeviceMemory::kAlignment);
    mem.allocate("d", 8, DeviceMemory::kAlignment); // card is now full
    EXPECT_THROW(mem.allocate("e", 8, 1), FatalError);
    mem.release("a");
    mem.release("b");
    // The two freed granules coalesce into one hole big enough for a
    // double-size buffer.
    auto *ab = mem.allocate("ab", 8, 2 * DeviceMemory::kAlignment);
    EXPECT_EQ(ab->baseAddr, 0u);
}

TEST(DeviceMemory, CacheHitSkipsUploadAndIsBitIdentical)
{
    DeviceMemory mem;
    const std::vector<int64_t> data{1, -2, 3};
    const std::vector<uint32_t> rows{1, 1, 1};
    auto cold = mem.acquireCached("t.QUAL", data, rows, 4);
    ASSERT_FALSE(cold.hit);
    mem.unpin("t.QUAL");
    // Resident key: the passed data is ignored, the cached image wins.
    auto warm = mem.acquireCached("t.QUAL", {}, {}, 4);
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.buffer, cold.buffer);
    EXPECT_EQ(warm.buffer->elements, data);
    EXPECT_EQ(warm.buffer->rowLengths, rows);
    mem.unpin("t.QUAL");
    auto stats = mem.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(DeviceMemory, CacheEvictsLeastRecentlyUsed)
{
    DeviceMemory mem;
    mem.setCacheCapacity(2 * DeviceMemory::kAlignment);
    auto insert = [&](const char *key) {
        mem.acquireCached(key, {1}, {1}, 8);
        mem.unpin(key);
    };
    insert("k1");
    insert("k2");
    mem.acquireCached("k1", {}, {}, 8); // touch k1: k2 is now the LRU
    mem.unpin("k1");
    insert("k3");
    EXPECT_EQ(mem.cacheStats().evictions, 1u);
    EXPECT_TRUE(mem.acquireCached("k1", {1}, {1}, 8).hit);
    mem.unpin("k1");
    EXPECT_FALSE(mem.acquireCached("k2", {1}, {1}, 8).hit); // evicted
    mem.unpin("k2");
}

TEST(DeviceMemory, PinnedColumnsAreNeverEvicted)
{
    DeviceMemory mem;
    mem.setCacheCapacity(DeviceMemory::kAlignment); // one-entry cache
    auto a = mem.acquireCached("a", {1}, {1}, 8);   // stays pinned
    ASSERT_FALSE(a.hit);
    EXPECT_THROW(mem.acquireCached("b", {2}, {1}, 8), FatalError);
    mem.unpin("a");
    auto b = mem.acquireCached("b", {2}, {1}, 8); // now a is evictable
    EXPECT_FALSE(b.hit);
    EXPECT_EQ(mem.cacheStats().evictions, 1u);
    mem.unpin("b");
}

TEST(DeviceMemory, CachedColumnsRejectDirectReleaseAndReupload)
{
    DeviceMemory mem;
    mem.acquireCached("k", {1}, {1}, 8);
    EXPECT_THROW(mem.release("k"), FatalError);
    EXPECT_THROW(mem.upload("k", {2}, {1}, 8), FatalError);
    mem.unpin("k");
}

TEST(DeviceMemory, CacheKeyCannotShadowUncachedBuffer)
{
    DeviceMemory mem;
    mem.upload("x", {1}, {1}, 8);
    EXPECT_THROW(mem.acquireCached("x", {1}, {1}, 8), FatalError);
}

TEST(Session, TimingSplitsHostDmaAccel)
{
    RuntimeConfig cfg;
    AcceleratorSession session(cfg);
    // DMA in.
    session.configureMem("in", {1, 2, 3}, {1, 1, 1}, 4);
    EXPECT_GT(session.timing().dmaSeconds, 0.0);
    // Host work.
    session.addHostSeconds(0.5);
    EXPECT_DOUBLE_EQ(session.timing().hostSeconds, 0.5);
}

TEST(Session, NonBlockingRunAndFlush)
{
    RuntimeConfig cfg;
    AcceleratorSession session(cfg);
    auto *in = session.configureMem("IN", {5, 6, 7}, {1, 1, 1}, 4);
    auto *out = session.configureOutput("OUT", 4);

    auto *q = session.sim().makeQueue("q");
    auto *sum_q = session.sim().makeQueue("sum");
    session.sim().make<modules::MemoryReader>(
        "rd", in, session.sim().memory().makePort(0), q,
        modules::MemoryReaderConfig{});
    modules::ReducerConfig red;
    red.op = modules::ReduceOp::Sum;
    session.sim().make<modules::Reducer>("sum", q, sum_q, red);
    modules::MemoryWriterConfig wr;
    session.sim().make<modules::MemoryWriter>(
        "wr", out, session.sim().memory().makePort(0), sum_q, wr);

    session.start();
    session.wait();
    EXPECT_TRUE(session.check());
    EXPECT_GT(session.timing().accelSeconds, 0.0);

    const auto *flushed = session.flush("OUT");
    ASSERT_EQ(flushed->elements.size(), 1u);
    EXPECT_EQ(flushed->elements[0], 18);
}

TEST(Session, FlushUnknownBufferFatal)
{
    AcceleratorSession session{RuntimeConfig{}};
    EXPECT_THROW(session.flush("nope"), FatalError);
}

/** Wire IN -> sum Reducer -> OUT into a session (test helper). */
void
wireSumPipeline(AcceleratorSession &session, std::vector<int64_t> values)
{
    std::vector<uint32_t> lens(values.size(), 1);
    auto *in = session.configureMem("IN", std::move(values),
                                    std::move(lens), 4);
    auto *out = session.configureOutput("OUT", 4);
    auto *q = session.sim().makeQueue("q");
    auto *sum_q = session.sim().makeQueue("sum");
    session.sim().make<modules::MemoryReader>(
        "rd", in, session.sim().memory().makePort(0), q,
        modules::MemoryReaderConfig{});
    modules::ReducerConfig red;
    red.op = modules::ReduceOp::Sum;
    session.sim().make<modules::Reducer>("sum", q, sum_q, red);
    modules::MemoryWriterConfig wr;
    session.sim().make<modules::MemoryWriter>(
        "wr", out, session.sim().memory().makePort(0), sum_q, wr);
}

TEST(Session, CheckPollsCompletionWithoutBlocking)
{
    AcceleratorSession session{RuntimeConfig{}};
    wireSumPipeline(session, {5, 6, 7});
    session.start();
    // Poll from the host thread while the worker advances the sim; the
    // completion flag is published atomically so this never races.
    while (!session.check())
        std::this_thread::yield();
    const auto *flushed = session.flush("OUT");
    ASSERT_EQ(flushed->elements.size(), 1u);
    EXPECT_EQ(flushed->elements[0], 18);
}

TEST(Session, AccelTimeCreditedExactlyOnceAcrossJoinPaths)
{
    // flush() implies wait(): the accelerator seconds are credited even
    // when the caller never waits explicitly.
    AcceleratorSession session{RuntimeConfig{}};
    wireSumPipeline(session, {1, 2, 3});
    session.start();
    session.flush("OUT");
    double credited = session.timing().accelSeconds;
    EXPECT_GT(credited, 0.0);
    // Further joins (explicit or via the destructor) must not re-credit.
    session.wait();
    session.wait();
    EXPECT_DOUBLE_EQ(session.timing().accelSeconds, credited);
}

TEST(Session, SharedDeviceMemorySurvivesSession)
{
    DeviceMemory board;
    {
        AcceleratorSession session(RuntimeConfig{}, &board);
        session.configureMem("col", {7}, {1}, 8);
    }
    // Board-persistent memory is not torn down with the session.
    ASSERT_NE(board.find("col"), nullptr);
    EXPECT_EQ(board.find("col")->elements[0], 7);
    EXPECT_TRUE(board.release("col"));
}

TEST(Session, ConfigureMemCachedChargesDmaOnlyOnMiss)
{
    DeviceMemory board;
    RuntimeConfig cfg;

    AcceleratorSession cold_session(cfg, &board);
    auto cold = cold_session.configureMemCached("tbl.POS", {1, 2, 3},
                                                {1, 1, 1}, 4);
    EXPECT_FALSE(cold.hit);
    EXPECT_GT(cold_session.timing().dmaSeconds, 0.0);
    board.unpin("tbl.POS");

    AcceleratorSession warm_session(cfg, &board);
    auto warm = warm_session.configureMemCached("tbl.POS", {1, 2, 3},
                                                {1, 1, 1}, 4);
    EXPECT_TRUE(warm.hit);
    // The whole point of the cache: a resident column costs no DMA-in.
    EXPECT_DOUBLE_EQ(warm_session.timing().dmaSeconds, 0.0);
    EXPECT_EQ(warm.buffer, cold.buffer);
    EXPECT_EQ(warm.buffer->elements, cold.buffer->elements);
    board.unpin("tbl.POS");
}

TEST(Timing, BreakdownPercentagesAndAccumulate)
{
    TimingBreakdown t;
    t.hostSeconds = 1.0;
    t.dmaSeconds = 2.0;
    t.accelSeconds = 1.0;
    EXPECT_DOUBLE_EQ(t.total(), 4.0);
    std::string s = t.str();
    EXPECT_NE(s.find("50.00%"), std::string::npos);

    TimingBreakdown u;
    u.hostSeconds = 1.0;
    t += u;
    EXPECT_DOUBLE_EQ(t.hostSeconds, 2.0);
}

// --- Paper-literal API (Section III-E) ------------------------------------

/**
 * A minimal image: one reader streaming "QUAL" (uint8 scalars) into a
 * whole-stream sum Reducer and a writer producing the "SUM" column.
 */
void
sumImage(AcceleratorSession &session,
         const std::function<modules::ColumnBuffer *(const std::string &)>
             &input)
{
    auto *in = input("QUAL");
    auto *out = session.configureOutput("SUM", 4);
    auto *q = session.sim().makeQueue("q");
    auto *sum_q = session.sim().makeQueue("sum");
    session.sim().make<modules::MemoryReader>(
        "rd", in, session.sim().memory().makePort(0), q,
        modules::MemoryReaderConfig{});
    modules::ReducerConfig red;
    red.op = modules::ReduceOp::Sum;
    session.sim().make<modules::Reducer>("red", q, sum_q, red);
    session.sim().make<modules::MemoryWriter>(
        "wr", out, session.sim().memory().makePort(0), sum_q,
        modules::MemoryWriterConfig{});
}

class PaperApi : public ::testing::Test
{
  protected:
    void SetUp() override { genesis_load_image(sumImage, 2); }
    void TearDown() override { genesis_unload_image(); }
};

TEST_F(PaperApi, EndToEndFlow)
{
    uint8_t quals[4] = {10, 20, 30, 40};
    uint32_t sum_out = 0;

    configure_mem(quals, 1, 4, "QUAL", 0);
    configure_mem(&sum_out, 4, 1, "SUM", 0);
    run_genesis(0);
    wait_genesis(0);
    EXPECT_TRUE(check_genesis(0));
    genesis_flush(0);
    EXPECT_EQ(sum_out, 100u);

    auto timing = genesis_timing(0);
    EXPECT_GT(timing.dmaSeconds, 0.0);
    EXPECT_GT(timing.accelSeconds, 0.0);
}

TEST_F(PaperApi, PipelinesAreIndependent)
{
    uint8_t quals0[2] = {1, 2};
    uint8_t quals1[3] = {10, 10, 10};
    uint32_t out0 = 0, out1 = 0;

    configure_mem(quals0, 1, 2, "QUAL", 0);
    configure_mem(&out0, 4, 1, "SUM", 0);
    configure_mem(quals1, 1, 3, "QUAL", 1);
    configure_mem(&out1, 4, 1, "SUM", 1);

    run_genesis(0);
    run_genesis(1);
    genesis_flush(0);
    genesis_flush(1);
    EXPECT_EQ(out0, 3u);
    EXPECT_EQ(out1, 30u);
}

TEST_F(PaperApi, ErrorsOnMisuse)
{
    EXPECT_THROW(run_genesis(7), FatalError);     // bad pipeline id
    EXPECT_THROW(wait_genesis(0), FatalError);    // before run
    uint8_t dummy = 0;
    EXPECT_THROW(configure_mem(&dummy, 0, 1, "X", 0), FatalError);
    // Running without the required column configured.
    EXPECT_THROW(run_genesis(0), FatalError);
}

TEST(PaperApiUnloaded, CallsWithoutImageFatal)
{
    uint8_t dummy = 0;
    EXPECT_THROW(configure_mem(&dummy, 1, 1, "X", 0), FatalError);
    EXPECT_THROW(genesis_load_image(sumImage, 0), FatalError);
}

// --- Host data decode / flush encode --------------------------------------

/** Like sumImage but with a 64-bit SUM column, so the full sign-extended
 *  sum survives the flush (narrow outputs would truncate the evidence). */
void
sumImage64(AcceleratorSession &session,
           const std::function<
               modules::ColumnBuffer *(const std::string &)> &input)
{
    auto *in = input("QUAL");
    auto *out = session.configureOutput("SUM", 8);
    auto *q = session.sim().makeQueue("q");
    auto *sum_q = session.sim().makeQueue("sum");
    session.sim().make<modules::MemoryReader>(
        "rd", in, session.sim().memory().makePort(0), q,
        modules::MemoryReaderConfig{});
    modules::ReducerConfig red;
    red.op = modules::ReduceOp::Sum;
    session.sim().make<modules::Reducer>("red", q, sum_q, red);
    session.sim().make<modules::MemoryWriter>(
        "wr", out, session.sim().memory().makePort(0), sum_q,
        modules::MemoryWriterConfig{});
}

/** Sum three negatives of host type T through the accelerator. A pure
 *  round-trip cannot detect missing sign extension (truncation restores
 *  the low bytes); arithmetic on the decoded values can. */
template <typename T>
void
expectSignedSum()
{
    // min()+8 keeps the sign bit set at every width without the sum
    // overflowing int64 (the accumulator type) in the T == int64 case.
    T vals[3] = {static_cast<T>(-1), static_cast<T>(-5),
                 static_cast<T>(std::numeric_limits<T>::min() + 8)};
    int64_t expected = -1 - 5 +
        (static_cast<int64_t>(std::numeric_limits<T>::min()) + 8);
    int64_t out = 0;

    genesis_load_image(sumImage64, 1);
    configure_mem(vals, sizeof(T), 3, "QUAL", 0);
    configure_mem(&out, 8, 1, "SUM", 0);
    run_genesis(0);
    genesis_flush(0);
    genesis_unload_image();
    EXPECT_EQ(out, expected) << "elemsize " << sizeof(T);
}

TEST(HostDecode, SignExtendsNarrowElements)
{
    expectSignedSum<int8_t>();
    expectSignedSum<int16_t>();
    expectSignedSum<int32_t>();
    expectSignedSum<int64_t>();
}

TEST(HostDecode, RoundTripPreservesBytesAtEveryElemsize)
{
    for (int es : {1, 2, 4, 8}) {
        // A pass-through image: reader straight into writer.
        auto copy_image =
            [es](AcceleratorSession &session,
                 const std::function<
                     modules::ColumnBuffer *(const std::string &)>
                     &input) {
                auto *in = input("VALS");
                auto *out = session.configureOutput(
                    "COPY", static_cast<uint32_t>(es));
                auto *q = session.sim().makeQueue("q");
                session.sim().make<modules::MemoryReader>(
                    "rd", in, session.sim().memory().makePort(0), q,
                    modules::MemoryReaderConfig{});
                session.sim().make<modules::MemoryWriter>(
                    "wr", out, session.sim().memory().makePort(0), q,
                    modules::MemoryWriterConfig{});
            };
        genesis_load_image(copy_image, 1);

        // 1, -1, min, max of the es-byte signed type, little-endian.
        const int64_t min_v = es < 8
            ? -(1ll << (8 * es - 1))
            : std::numeric_limits<int64_t>::min();
        const int64_t max_v = es < 8
            ? (1ll << (8 * es - 1)) - 1
            : std::numeric_limits<int64_t>::max();
        const int64_t values[4] = {1, -1, min_v, max_v};
        std::vector<uint8_t> src(4 * static_cast<size_t>(es));
        for (size_t i = 0; i < 4; ++i) {
            for (int b = 0; b < es; ++b)
                src[i * static_cast<size_t>(es) +
                    static_cast<size_t>(b)] =
                    static_cast<uint8_t>(
                        (static_cast<uint64_t>(values[i]) >> (8 * b)) &
                        0xff);
        }
        std::vector<uint8_t> dst(src.size(), 0xAA);

        configure_mem(src.data(), es, 4, "VALS", 0);
        configure_mem(dst.data(), es, 4, "COPY", 0);
        run_genesis(0);
        genesis_flush(0);
        genesis_unload_image();
        EXPECT_EQ(src, dst) << "elemsize " << es;
    }
}

TEST_F(PaperApi, FlushTruncationWarnsButKeepsPrefix)
{
    uint8_t quals[4] = {10, 20, 30, 40};
    uint32_t sum_out = 0xdeadbeef;

    configure_mem(quals, 1, 4, "QUAL", 0);
    // Host buffer holds zero elements: the produced sum must be dropped
    // loudly (a warning), never silently.
    configure_mem(&sum_out, 4, 0, "SUM", 0);
    run_genesis(0);
    genesis_flush(0);
    EXPECT_EQ(sum_out, 0xdeadbeefu); // nothing written past the buffer
}

TEST(PaperApiStrict, FlushTruncationFatalUnderStrictFlush)
{
    RuntimeConfig cfg;
    cfg.strictFlush = true;
    genesis_load_image(sumImage, 1, cfg);
    uint8_t quals[2] = {1, 2};
    uint32_t sum_out = 0;
    configure_mem(quals, 1, 2, "QUAL", 0);
    configure_mem(&sum_out, 4, 0, "SUM", 0);
    run_genesis(0);
    EXPECT_THROW(genesis_flush(0), FatalError);
    genesis_unload_image();
}

// --- Concurrent multi-pipeline drivers ------------------------------------

/** The qual values pipeline p streams in round r (length varies too). */
std::vector<uint8_t>
concurrentQuals(int pipeline, int round)
{
    std::vector<uint8_t> quals(3 + static_cast<size_t>(pipeline));
    for (size_t i = 0; i < quals.size(); ++i) {
        quals[i] = static_cast<uint8_t>(
            (pipeline * 16 + round * 4 + static_cast<int>(i)) & 0x7f);
    }
    return quals;
}

TEST(PaperApiConcurrent, FourPipelinesMatchSequentialBitForBit)
{
    constexpr int kPipelines = 4;
    constexpr int kRounds = 3;

    // Sequential reference run.
    uint32_t expected[kPipelines][kRounds] = {};
    genesis_load_image(sumImage, kPipelines);
    for (int p = 0; p < kPipelines; ++p) {
        for (int r = 0; r < kRounds; ++r) {
            auto quals = concurrentQuals(p, r);
            uint32_t out = 0;
            configure_mem(quals.data(), 1,
                          static_cast<int>(quals.size()), "QUAL", p);
            configure_mem(&out, 4, 1, "SUM", p);
            run_genesis(p);
            genesis_flush(p);
            expected[p][r] = out;
        }
    }
    genesis_unload_image();

    // Concurrent run: one host thread per pipeline, all rounds.
    uint32_t actual[kPipelines][kRounds] = {};
    genesis_load_image(sumImage, kPipelines);
    std::vector<std::thread> drivers;
    for (int p = 0; p < kPipelines; ++p) {
        drivers.emplace_back([p, &actual] {
            for (int r = 0; r < kRounds; ++r) {
                auto quals = concurrentQuals(p, r);
                uint32_t out = 0;
                configure_mem(quals.data(), 1,
                              static_cast<int>(quals.size()), "QUAL",
                              p);
                configure_mem(&out, 4, 1, "SUM", p);
                run_genesis(p);
                while (!check_genesis(p))
                    std::this_thread::yield();
                wait_genesis(p);
                genesis_flush(p);
                actual[p][r] = out;
                EXPECT_GT(genesis_timing(p).accelSeconds, 0.0);
            }
        });
    }
    for (auto &t : drivers)
        t.join();
    genesis_unload_image();

    for (int p = 0; p < kPipelines; ++p) {
        for (int r = 0; r < kRounds; ++r)
            EXPECT_EQ(actual[p][r], expected[p][r])
                << "pipeline " << p << " round " << r;
    }
}

TEST(PaperApiConcurrent, SharedTraceSinkCollectsEveryPipeline)
{
    constexpr int kPipelines = 4;
    TraceSink sink;
    genesis_load_image(sumImage, kPipelines);
    genesis_trace(&sink);

    std::vector<std::thread> drivers;
    for (int p = 0; p < kPipelines; ++p) {
        drivers.emplace_back([p] {
            auto quals = concurrentQuals(p, 0);
            uint32_t out = 0;
            configure_mem(quals.data(), 1,
                          static_cast<int>(quals.size()), "QUAL", p);
            configure_mem(&out, 4, 1, "SUM", p);
            run_genesis(p);
            genesis_flush(p);
        });
    }
    for (auto &t : drivers)
        t.join();
    genesis_unload_image();

    // Each concurrently run pipeline recorded privately and was merged
    // into the shared sink as its own trace process.
    sink.finish();
    EXPECT_EQ(sink.numProcesses(), 4u);
    EXPECT_FALSE(sink.spans().empty());
}

// --- BatchRunner -----------------------------------------------------------

TEST(Batch, ShardsAcrossLanesMergeResultsAndTiming)
{
    constexpr size_t kShards = 7;
    BatchConfig cfg;
    cfg.numLanes = 3;
    BatchRunner runner(cfg);

    int64_t results[kShards] = {};
    BatchStats stats = runner.run(
        kShards,
        [](size_t shard, AcceleratorSession &session) {
            int64_t base = static_cast<int64_t>(shard) * 10;
            wireSumPipeline(session, {base + 1, base + 2, base + 3});
        },
        [&results](size_t shard, AcceleratorSession &session) {
            const auto *flushed = session.flush("OUT");
            ASSERT_EQ(flushed->elements.size(), 1u);
            results[shard] = flushed->elements[0];
        });

    for (size_t s = 0; s < kShards; ++s)
        EXPECT_EQ(results[s], static_cast<int64_t>(s) * 30 + 6);
    EXPECT_EQ(stats.shards, kShards);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GT(stats.timing.accelSeconds, 0.0);
    EXPECT_GT(stats.timing.dmaSeconds, 0.0);
    EXPECT_GE(stats.wallSeconds, 0.0);
}

TEST(Batch, SharedDeviceMemoryReusesCachedColumns)
{
    constexpr size_t kShards = 6;
    DeviceMemory board;
    BatchConfig cfg;
    cfg.numLanes = 2;
    cfg.sharedDevice = &board;
    BatchRunner runner(cfg);

    int64_t results[kShards] = {};
    BatchStats stats = runner.run(
        kShards,
        [](size_t shard, AcceleratorSession &session) {
            // Shared board: per-shard output names, one cached input
            // shared by every shard.
            auto in = session.configureMemCached("tbl.VALS", {5, 6, 7},
                                                 {1, 1, 1}, 4);
            std::string out_name =
                "s" + std::to_string(shard) + ".OUT";
            auto *out = session.configureOutput(out_name, 4);
            auto *q = session.sim().makeQueue("q");
            auto *sum_q = session.sim().makeQueue("sum");
            session.sim().make<modules::MemoryReader>(
                "rd", in.buffer, session.sim().memory().makePort(0), q,
                modules::MemoryReaderConfig{});
            modules::ReducerConfig red;
            red.op = modules::ReduceOp::Sum;
            session.sim().make<modules::Reducer>("sum", q, sum_q, red);
            modules::MemoryWriterConfig wr;
            session.sim().make<modules::MemoryWriter>(
                "wr", out, session.sim().memory().makePort(0), sum_q,
                wr);
        },
        [&](size_t shard, AcceleratorSession &session) {
            std::string out_name =
                "s" + std::to_string(shard) + ".OUT";
            const auto *flushed = session.flush(out_name);
            ASSERT_EQ(flushed->elements.size(), 1u);
            results[shard] = flushed->elements[0];
            session.deviceMemory().unpin("tbl.VALS");
            session.deviceMemory().release(out_name);
        });

    for (size_t s = 0; s < kShards; ++s)
        EXPECT_EQ(results[s], 18);
    EXPECT_EQ(stats.shards, kShards);
    // One miss uploaded the column; every other shard hit it.
    auto cache = board.cacheStats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, kShards - 1);
}

TEST(Dma, PresetLookupByName)
{
    EXPECT_DOUBLE_EQ(DmaConfig::fromName("pcie4").bytesPerSecond,
                     DmaConfig::pcie4().bytesPerSecond);
    EXPECT_EQ(DmaConfig::fromName("pcie3").name, "pcie3");
    EXPECT_THROW(DmaConfig::fromName("carrier-pigeon"), FatalError);
}

TEST(Batch, ShardTracesMergeIntoSharedSink)
{
    TraceSink sink;
    BatchConfig cfg;
    cfg.numLanes = 2;
    cfg.runtime.trace = &sink;
    cfg.runtime.traceLabel = "batch";
    BatchRunner runner(cfg);

    runner.run(
        3,
        [](size_t, AcceleratorSession &session) {
            wireSumPipeline(session, {1, 2, 3});
        },
        [](size_t, AcceleratorSession &session) {
            session.flush("OUT");
        });

    sink.finish();
    // One trace process per shard, adopted as each shard retired.
    EXPECT_EQ(sink.numProcesses(), 3u);
    EXPECT_FALSE(sink.spans().empty());
}

TEST(RuntimeValidate, DefaultConfigIsValid)
{
    EXPECT_TRUE(validate(RuntimeConfig()).empty());
    RuntimeConfig one_thread;
    one_thread.simThreads = 1;
    EXPECT_TRUE(validate(one_thread).empty());
}

TEST(RuntimeValidate, BadFieldsAreNamed)
{
    RuntimeConfig cfg;
    cfg.clockHz = 0.0;
    cfg.simThreads = 2;
    cfg.dma.bytesPerSecond = -1.0;
    cfg.dma.perTransferLatency = -1e-6;
    std::vector<std::string> errors = validate(cfg);
    auto contains = [&errors](const char *field) {
        for (const auto &e : errors) {
            if (e.rfind(field, 0) == 0)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("clockHz:"));
    EXPECT_TRUE(contains("simThreads:"));
    EXPECT_TRUE(contains("dma.bytesPerSecond:"));
    EXPECT_TRUE(contains("dma.perTransferLatency:"));
}

TEST(RuntimeValidate, MemoryErrorsArePrefixed)
{
    RuntimeConfig cfg;
    cfg.memory.numChannels = 0;
    std::vector<std::string> errors = validate(cfg);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].rfind("memory.numChannels:", 0), 0u)
        << errors[0];
}

TEST(RuntimeValidate, SessionConstructorRejectsBadConfigs)
{
    // clockHz <= 0 used to silently produce infinite / negative
    // simulated seconds; it must now fail at construction, naming the
    // knob.
    RuntimeConfig cfg;
    cfg.clockHz = -250e6;
    try {
        AcceleratorSession session(cfg);
        FAIL() << "session accepted a negative clock";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("clockHz"),
                  std::string::npos);
    }

    // A memory-model error surfaces through the same gate, with the
    // runtime validation running before the MemorySystem constructor so
    // every bad field is reported, not just the first memory one.
    RuntimeConfig bad_mem;
    bad_mem.memory.accessGranularity = 3;
    bad_mem.clockHz = 0.0;
    try {
        AcceleratorSession session(bad_mem);
        FAIL() << "session accepted a broken memory config";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("memory.accessGranularity"),
                  std::string::npos);
        EXPECT_NE(what.find("clockHz"), std::string::npos);
    }
}

} // namespace
} // namespace genesis::runtime
