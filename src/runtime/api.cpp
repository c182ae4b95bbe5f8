#include "runtime/api.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <shared_mutex>
#include <sstream>
#include <vector>

#include "base/logging.h"
#include "base/trace.h"

namespace genesis::runtime {

// --- TimingBreakdown ----------------------------------------------------

TimingBreakdown &
TimingBreakdown::operator+=(const TimingBreakdown &other)
{
    hostSeconds += other.hostSeconds;
    dmaSeconds += other.dmaSeconds;
    accelSeconds += other.accelSeconds;
    return *this;
}

std::string
TimingBreakdown::str() const
{
    double t = total();
    auto pct = [t](double x) { return t > 0 ? 100.0 * x / t : 0.0; };
    std::ostringstream os;
    os.precision(2);
    os << std::fixed;
    os << "total " << t << " s"
       << " | host " << hostSeconds << " s (" << pct(hostSeconds) << "%)"
       << " | communication " << dmaSeconds << " s (" << pct(dmaSeconds)
       << "%)"
       << " | accelerator " << accelSeconds << " s ("
       << pct(accelSeconds) << "%)";
    return os.str();
}

// --- RuntimeConfig --------------------------------------------------------

std::vector<std::string>
validate(const RuntimeConfig &config)
{
    std::vector<std::string> errors;
    if (!(config.clockHz > 0) || !std::isfinite(config.clockHz)) {
        errors.push_back(strfmt("clockHz: accelerator clock must be a "
                                "positive finite frequency (got %g)",
                                config.clockHz));
    }
    if (!(config.dma.bytesPerSecond > 0) ||
        !std::isfinite(config.dma.bytesPerSecond)) {
        errors.push_back(strfmt("dma.bytesPerSecond: interconnect "
                                "bandwidth must be positive (got %g)",
                                config.dma.bytesPerSecond));
    }
    if (config.dma.perTransferLatency < 0) {
        errors.push_back(strfmt("dma.perTransferLatency: must be "
                                "non-negative (got %g)",
                                config.dma.perTransferLatency));
    }
    if (config.simThreads != 0 && config.simThreads != 1) {
        errors.push_back(strfmt("simThreads: the simulator runs on one "
                                "thread (got %d)", config.simThreads));
    }
    for (const auto &e : sim::validate(config.memory))
        errors.push_back("memory." + e);
    return errors;
}

// --- AcceleratorSession ---------------------------------------------------

AcceleratorSession::AcceleratorSession(const RuntimeConfig &config)
    : AcceleratorSession(config, nullptr)
{
}

AcceleratorSession::AcceleratorSession(const RuntimeConfig &config,
                                       DeviceMemory *device)
    : config_(config)
{
    // Validate before constructing the simulator so every invalid field
    // is reported by name in one shot (the MemorySystem constructor
    // would otherwise fatal on the first memory problem alone).
    std::vector<std::string> errors = validate(config_);
    if (!errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += (joined.empty() ? "" : "; ") + e;
        fatal("invalid RuntimeConfig: %s", joined.c_str());
    }
    sim_ = std::make_unique<sim::Simulator>(config.memory);
    if (device) {
        device_ = device;
    } else {
        ownedDevice_ = std::make_unique<DeviceMemory>();
        device_ = ownedDevice_.get();
    }
    if (config_.trace)
        sim_->attachTrace(config_.trace, config_.traceLabel);
}

AcceleratorSession::~AcceleratorSession()
{
    // Route through wait() so the accelerator time is credited (exactly
    // once) even when a session is torn down without an explicit wait.
    wait();
}

modules::ColumnBuffer *
AcceleratorSession::configureMem(const std::string &colname,
                                 const table::Column &column)
{
    modules::ColumnBuffer *buffer = device_->upload(colname, column);
    timing_.dmaSeconds += transferSeconds(config_.dma,
                                          buffer->totalBytes());
    return buffer;
}

modules::ColumnBuffer *
AcceleratorSession::configureMem(const std::string &colname,
                                 std::vector<int64_t> elements,
                                 std::vector<uint32_t> row_lengths,
                                 uint32_t elem_size_bytes)
{
    modules::ColumnBuffer *buffer =
        device_->upload(colname, std::move(elements),
                        std::move(row_lengths), elem_size_bytes);
    timing_.dmaSeconds += transferSeconds(config_.dma,
                                          buffer->totalBytes());
    return buffer;
}

DeviceMemory::CachedColumn
AcceleratorSession::configureMemCached(const std::string &key,
                                       std::vector<int64_t> elements,
                                       std::vector<uint32_t> row_lengths,
                                       uint32_t elem_size_bytes)
{
    DeviceMemory::CachedColumn cached = device_->acquireCached(
        key, std::move(elements), std::move(row_lengths),
        elem_size_bytes);
    // A resident column never crosses the interconnect again: only the
    // miss (the actual upload) is charged as communication time.
    if (!cached.hit) {
        timing_.dmaSeconds += transferSeconds(
            config_.dma, cached.buffer->totalBytes());
    }
    return cached;
}

modules::ColumnBuffer *
AcceleratorSession::configureOutput(const std::string &colname,
                                    uint32_t elem_size_bytes)
{
    return device_->allocate(colname, elem_size_bytes);
}

void
AcceleratorSession::start()
{
    std::lock_guard<std::mutex> lock(joinMutex_);
    GENESIS_ASSERT(!started_.load(std::memory_order_relaxed),
                   "session already started");
    worker_ = std::thread([this] { sim_->run(); });
    started_.store(true, std::memory_order_release);
}

bool
AcceleratorSession::check()
{
    GENESIS_ASSERT(started_.load(std::memory_order_acquire),
                   "check before start");
    // Poll only the completion flag the simulator publishes atomically;
    // walking the module list here would race with the worker thread.
    return sim_->finished();
}

void
AcceleratorSession::wait()
{
    std::lock_guard<std::mutex> lock(joinMutex_);
    if (!started_.load(std::memory_order_acquire) || joined_)
        return;
    worker_.join();
    joined_ = true;
    // Credit the simulated accelerator time exactly once, whichever join
    // path got here first (wait_genesis, flush, destructor, unload).
    timing_.accelSeconds += secondsForCycles(sim_->cycle());
}

const modules::ColumnBuffer *
AcceleratorSession::flush(const std::string &colname)
{
    // A still-running worker owns device memory; join before reading it
    // (also credits the accelerator time ahead of the DMA accounting).
    wait();
    modules::ColumnBuffer *buffer = device_->find(colname);
    if (!buffer)
        fatal("flush of unknown device buffer '%s'", colname.c_str());
    timing_.dmaSeconds += transferSeconds(config_.dma,
                                          buffer->totalBytes());
    return buffer;
}

double
AcceleratorSession::secondsForCycles(uint64_t cycles) const
{
    return static_cast<double>(cycles) / config_.clockHz;
}

HostTimer::HostTimer(AcceleratorSession &session)
    : session_(session), start_(std::chrono::steady_clock::now())
{
}

HostTimer::~HostTimer()
{
    auto elapsed = std::chrono::steady_clock::now() - start_;
    session_.addHostSeconds(
        std::chrono::duration<double>(elapsed).count());
}

// --- Paper-literal API ----------------------------------------------------

namespace {

/** Host data recorded by configure_mem, pending upload or flush. */
struct ConfiguredColumn {
    void *addr = nullptr;
    int elemSize = 0;
    int len = 0;
};

/** Per-pipeline runtime state for the literal API. */
struct PipelineSlot {
    std::unique_ptr<AcceleratorSession> session;
    std::map<std::string, ConfiguredColumn> columns;
    /**
     * Private sink this slot's running session records into. A shared
     * TraceSink is single-writer, so concurrently running pipelines
     * must not share one; each slot records privately and the data is
     * merged into the registry's sink (under traceMutex) when the run
     * retires. Must outlive the session, which holds a pointer to it.
     */
    std::unique_ptr<TraceSink> trace;
};

struct ImageState {
    ImageBuilder builder;
    RuntimeConfig config;
    std::vector<PipelineSlot> slots;
    bool loaded = false;
    TraceSink *trace = nullptr;
    /**
     * Registry lock: exclusive for genesis_load_image /
     * genesis_unload_image / genesis_trace (they mutate the slot vector
     * and shared config), shared for every per-pipeline call. Distinct
     * pipeline ids touch distinct slots, so shared holders never
     * conflict; calls naming the same id must be externally serialized
     * (documented contract).
     */
    std::shared_mutex mutex;
    /** Serializes merging per-slot trace data into `trace`. */
    std::mutex traceMutex;
};

ImageState &
imageState()
{
    static ImageState state;
    return state;
}

/** Look up a pipeline slot. Caller must hold state.mutex. */
PipelineSlot &
slotFor(ImageState &state, int pipeline_id)
{
    if (!state.loaded)
        fatal("no Genesis image loaded (call genesis_load_image first)");
    if (pipeline_id < 0 ||
        static_cast<size_t>(pipeline_id) >= state.slots.size()) {
        fatal("pipeline id %d out of range (%zu pipelines)", pipeline_id,
              state.slots.size());
    }
    return state.slots[static_cast<size_t>(pipeline_id)];
}

/**
 * Merge a retired slot's private trace recording into the registry's
 * shared sink. The slot's session must be joined first. Idempotent: the
 * slot sink is reset by the merge, so a second publish adopts nothing.
 */
void
publishSlotTrace(ImageState &state, PipelineSlot &slot)
{
    if (!slot.trace || !state.trace)
        return;
    std::lock_guard<std::mutex> lock(state.traceMutex);
    state.trace->adopt(*slot.trace);
}

/** Decode little-endian raw host memory into int64 elements. */
std::vector<int64_t>
decodeHost(const ConfiguredColumn &col)
{
    std::vector<int64_t> elements;
    elements.reserve(static_cast<size_t>(col.len));
    const auto *bytes = static_cast<const uint8_t *>(col.addr);
    for (int i = 0; i < col.len; ++i) {
        uint64_t v = 0;
        for (int b = 0; b < col.elemSize; ++b) {
            v |= static_cast<uint64_t>(
                     bytes[static_cast<size_t>(i) *
                           static_cast<size_t>(col.elemSize) +
                           static_cast<size_t>(b)])
                << (8 * b);
        }
        // Columns are signed (the device element type is int64): sign-
        // extend from the host element width so e.g. int16 -1 decodes as
        // -1, not 65535.
        if (col.elemSize < 8) {
            const uint64_t sign_bit = 1ull
                << (8 * static_cast<unsigned>(col.elemSize) - 1);
            v = (v ^ sign_bit) - sign_bit;
        }
        elements.push_back(static_cast<int64_t>(v));
    }
    return elements;
}

} // namespace

void
genesis_load_image(ImageBuilder builder, int num_pipelines,
                   const RuntimeConfig &config)
{
    if (num_pipelines < 1)
        fatal("image needs at least one pipeline");
    ImageState &state = imageState();
    std::unique_lock<std::shared_mutex> lock(state.mutex);
    state.builder = std::move(builder);
    state.config = config;
    // A RuntimeConfig sink is unified with genesis_trace(): sessions
    // never see the shared sink directly (single-writer contract); each
    // running pipeline records into a private per-slot sink instead.
    state.trace = config.trace;
    state.config.trace = nullptr;
    state.slots.clear();
    state.slots.resize(static_cast<size_t>(num_pipelines));
    state.loaded = true;
}

void
genesis_unload_image()
{
    ImageState &state = imageState();
    std::unique_lock<std::shared_mutex> lock(state.mutex);
    for (auto &slot : state.slots) {
        if (slot.session) {
            // wait() (not a raw join) so the final run's accelerator
            // time is credited, then salvage its trace data.
            slot.session->wait();
            publishSlotTrace(state, slot);
        }
    }
    state.slots.clear();
    state.builder = nullptr;
    state.loaded = false;
    state.trace = nullptr;
}

void
configure_mem(void *addr, int elemsize, int len,
              const std::string &colname, int pipelineID)
{
    if (!addr || elemsize <= 0 || elemsize > 8 || len < 0)
        fatal("configure_mem: invalid arguments for '%s'",
              colname.c_str());
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    slot.columns[colname] = ConfiguredColumn{addr, elemsize, len};
}

void
run_genesis(int pipelineID)
{
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    if (slot.session) {
        // Retire the previous run on this slot before replacing it so
        // its accelerator time and trace data are not lost.
        slot.session->wait();
        publishSlotTrace(state, slot);
    }
    slot.session = std::make_unique<AcceleratorSession>(state.config);
    if (state.trace) {
        slot.trace = std::make_unique<TraceSink>();
        slot.session->attachTrace(
            slot.trace.get(), "pipeline" + std::to_string(pipelineID));
    }

    auto input = [&slot](const std::string &colname)
        -> modules::ColumnBuffer * {
        auto it = slot.columns.find(colname);
        if (it == slot.columns.end()) {
            fatal("image requests column '%s' that was never configured",
                  colname.c_str());
        }
        std::vector<int64_t> elements = decodeHost(it->second);
        std::vector<uint32_t> row_lengths(elements.size(), 1);
        return slot.session->configureMem(
            colname, std::move(elements), std::move(row_lengths),
            static_cast<uint32_t>(it->second.elemSize));
    };
    {
        HostTimer timer(*slot.session);
        state.builder(*slot.session, input);
    }
    slot.session->start();
}

bool
check_genesis(int pipelineID)
{
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    if (!slot.session)
        fatal("check_genesis before run_genesis");
    return slot.session->check();
}

void
wait_genesis(int pipelineID)
{
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    if (!slot.session)
        fatal("wait_genesis before run_genesis");
    slot.session->wait();
    publishSlotTrace(state, slot);
}

void
genesis_flush(int pipelineID)
{
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    if (!slot.session)
        fatal("genesis_flush before run_genesis");
    slot.session->wait();
    publishSlotTrace(state, slot);
    // Copy every output buffer with a configured host destination back to
    // host memory, accounting the device-to-host DMA.
    for (const auto &buffer : slot.session->deviceMemory().buffers()) {
        if (!buffer->isOutput)
            continue;
        auto it = slot.columns.find(buffer->name);
        if (it == slot.columns.end())
            continue;
        const modules::ColumnBuffer *flushed =
            slot.session->flush(buffer->name);
        auto *dest = static_cast<uint8_t *>(it->second.addr);
        size_t max_elems = static_cast<size_t>(it->second.len);
        size_t produced = flushed->elements.size();
        if (produced > max_elems) {
            if (state.config.strictFlush) {
                fatal("genesis_flush: output '%s' on pipeline %d "
                      "produced %zu elements but the host buffer holds "
                      "only %zu (strictFlush)",
                      buffer->name.c_str(), pipelineID, produced,
                      max_elems);
            }
            warn("genesis_flush: output '%s' on pipeline %d produced "
                 "%zu elements but the host buffer holds only %zu; "
                 "dropping %zu trailing elements",
                 buffer->name.c_str(), pipelineID, produced, max_elems,
                 produced - max_elems);
        }
        size_t n = std::min(produced, max_elems);
        for (size_t i = 0; i < n; ++i) {
            uint64_t v = static_cast<uint64_t>(flushed->elements[i]);
            for (int b = 0; b < it->second.elemSize; ++b) {
                dest[i * static_cast<size_t>(it->second.elemSize) +
                     static_cast<size_t>(b)] =
                    static_cast<uint8_t>((v >> (8 * b)) & 0xff);
            }
        }
    }
}

void
genesis_trace(TraceSink *sink)
{
    ImageState &state = imageState();
    std::unique_lock<std::shared_mutex> lock(state.mutex);
    state.trace = sink;
}

TimingBreakdown
genesis_timing(int pipelineID)
{
    ImageState &state = imageState();
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    PipelineSlot &slot = slotFor(state, pipelineID);
    if (!slot.session)
        return TimingBreakdown{};
    return slot.session->timing();
}

} // namespace genesis::runtime
