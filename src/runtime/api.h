/**
 * @file
 * Host-side runtime: accelerator sessions, timing accounting, and the
 * paper's application-programmer interface (Section III-E).
 *
 * An AcceleratorSession owns one simulated accelerator invocation: its
 * device memory, its Simulator, and the timing ledger that splits runtime
 * into host / communication (DMA) / accelerator components — the exact
 * decomposition of paper Figure 13(b). start() is non-blocking (a worker
 * thread advances the simulation) so the host can overlap its own work,
 * mirroring the non-blocking run_genesis()/check_genesis() calls.
 *
 * The bottom of this header declares the paper-literal C-style API
 * (configure_mem, run_genesis, check_genesis, wait_genesis,
 * genesis_flush) over a process-global image registry.
 *
 * Concurrency contract (see also DESIGN.md §7):
 *  - AcceleratorSession: check() and wait() are safe concurrently with
 *    the worker thread and with each other; every other member must be
 *    called from one host thread at a time, and sim()/deviceMemory()
 *    must not be touched between start() and wait()/check()==true.
 *  - Paper-literal API: calls naming *distinct* pipeline ids may be
 *    issued from multiple host threads concurrently; calls naming the
 *    *same* pipeline id must be externally serialized.
 *    genesis_load_image / genesis_unload_image / genesis_trace take the
 *    registry lock exclusively and must not race with in-flight calls
 *    on any pipeline.
 */

#ifndef GENESIS_RUNTIME_API_H
#define GENESIS_RUNTIME_API_H

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/device.h"
#include "runtime/dma.h"
#include "sim/scheduler.h"

namespace genesis::runtime {

/** Clock and interconnect configuration of one deployment. */
struct RuntimeConfig {
    /** Accelerator clock (paper: 250 MHz on the F1 VU9P). */
    double clockHz = 250e6;
    DmaConfig dma = DmaConfig::pcie3();
    sim::MemoryConfig memory;
    /**
     * When set, every session built from this config records its
     * simulation into this sink (one trace process per session, named
     * `traceLabel`). The sink must outlive the sessions and is written
     * by at most one running session at a time — sequential batches
     * are fine, concurrent sessions need separate sinks. Tracing never
     * changes simulated cycles or statistics.
     */
    TraceSink *trace = nullptr;
    /** Trace process label for sessions built from this config. */
    std::string traceLabel = "accel";
    /**
     * When true, genesis_flush() treats a device output column larger
     * than its configured host buffer as a fatal error instead of
     * truncating with a warning (see genesis_flush).
     */
    bool strictFlush = false;
    /**
     * Does nothing: the simulator always runs on the thread that calls
     * run() (DESIGN.md §4e). The field remains only because the repo
     * benchmark pins it to 1 and may change only together with the
     * benchmark. validate() accepts 0 and 1 and rejects anything else.
     */
    int simThreads = 0;
};

/**
 * Up-front validation of one runtime configuration. Returns one
 * "<field>: <problem>" line per invalid field (empty = valid); nested
 * memory-model problems are prefixed "memory.". AcceleratorSession's
 * constructor fatals with these messages, so a bad configuration fails
 * cleanly at session creation (naming the knob) instead of deep inside
 * the models or — for clockHz <= 0, which used to produce infinite or
 * negative simulated seconds — silently mis-simulating.
 */
std::vector<std::string> validate(const RuntimeConfig &config);

/** Host / communication / accelerator runtime split (Figure 13(b)). */
struct TimingBreakdown {
    double hostSeconds = 0.0;
    double dmaSeconds = 0.0;
    double accelSeconds = 0.0;

    double total() const
    {
        return hostSeconds + dmaSeconds + accelSeconds;
    }

    TimingBreakdown &operator+=(const TimingBreakdown &other);

    /** Percentage shares, rendered like the paper's breakdown. */
    std::string str() const;
};

/** One accelerator invocation: build, configure, run, flush. */
class AcceleratorSession
{
  public:
    explicit AcceleratorSession(const RuntimeConfig &config);

    /**
     * Session over a shared (board-persistent) device memory, e.g. a
     * service board serving many jobs: uploads land in `device`, which
     * must outlive the session and is NOT torn down with it — callers
     * own buffer lifetime (release / cache eviction). `device`'s
     * internal locking makes concurrent sessions on one board safe;
     * name collisions between concurrent jobs are the caller's to
     * avoid (scope buffer names per job).
     */
    AcceleratorSession(const RuntimeConfig &config, DeviceMemory *device);

    ~AcceleratorSession();

    AcceleratorSession(const AcceleratorSession &) = delete;
    AcceleratorSession &operator=(const AcceleratorSession &) = delete;

    const RuntimeConfig &config() const { return config_; }
    sim::Simulator &sim() { return *sim_; }
    DeviceMemory &deviceMemory() { return *device_; }

    /** configure_mem for an input column: DMA-in accounted. */
    modules::ColumnBuffer *configureMem(const std::string &colname,
                                        const table::Column &column);

    /** configure_mem for a pre-decoded element stream: DMA-in accounted. */
    modules::ColumnBuffer *configureMem(const std::string &colname,
                                        std::vector<int64_t> elements,
                                        std::vector<uint32_t> row_lengths,
                                        uint32_t elem_size_bytes);

    /**
     * configure_mem through the device's keyed column cache: a
     * resident `key` skips the upload and the DMA-in entirely (only a
     * miss is charged to the DMA ledger). The entry stays pinned until
     * DeviceMemory::unpin(key); results are bit-identical on hit and
     * miss by the keying contract (a key names one column image).
     */
    DeviceMemory::CachedColumn
    configureMemCached(const std::string &key,
                       std::vector<int64_t> elements,
                       std::vector<uint32_t> row_lengths,
                       uint32_t elem_size_bytes);

    /** Allocate an output buffer (no DMA until flushed). */
    modules::ColumnBuffer *configureOutput(const std::string &colname,
                                           uint32_t elem_size_bytes);

    /** Non-blocking: launch the simulation on a worker thread. */
    void start();

    /**
     * @return true when the accelerator finished (non-blocking).
     * Safe to call from any host thread while the worker runs: it only
     * reads the completion flag the simulator publishes atomically.
     */
    bool check();

    /**
     * Block until the accelerator finishes. Joins the worker thread and
     * credits the simulated accelerator seconds to the timing ledger
     * exactly once, no matter how often it is called or from which join
     * path (explicit wait, flush, destructor). Thread-safe.
     */
    void wait();

    /**
     * genesis_flush: DMA an output buffer back; returns it. Implies
     * wait(): a running session is joined first, so the buffer is
     * stable and the accelerator time is credited before the DMA is
     * accounted.
     */
    const modules::ColumnBuffer *flush(const std::string &colname);

    /**
     * Record this session's simulation into `sink` as one trace process
     * named `label`. Call before start(); overrides any sink inherited
     * from RuntimeConfig::trace.
     */
    void attachTrace(TraceSink *sink, const std::string &label)
    {
        sim_->attachTrace(sink, label);
    }

    /** Account host-side work time explicitly. */
    void addHostSeconds(double seconds) { timing_.hostSeconds += seconds; }

    const TimingBreakdown &timing() const { return timing_; }

    /** @return simulated accelerator seconds for a cycle count. */
    double secondsForCycles(uint64_t cycles) const;

  private:
    RuntimeConfig config_;
    /** Session-owned device memory (null when running on a board's). */
    std::unique_ptr<DeviceMemory> ownedDevice_;
    /** The device memory in use: ownedDevice_ or the shared board's. */
    DeviceMemory *device_ = nullptr;
    std::unique_ptr<sim::Simulator> sim_;
    TimingBreakdown timing_;
    std::thread worker_;
    /** Set (under joinMutex_) once start() launched the worker. */
    std::atomic<bool> started_{false};
    /** True once the worker has been joined (guarded by joinMutex_). */
    bool joined_ = false;
    /** Serializes start()/wait() join bookkeeping across host threads. */
    std::mutex joinMutex_;
};

/** Stopwatch that adds elapsed wall time to a session's host bucket. */
class HostTimer
{
  public:
    explicit HostTimer(AcceleratorSession &session);
    ~HostTimer();

    HostTimer(const HostTimer &) = delete;
    HostTimer &operator=(const HostTimer &) = delete;

  private:
    AcceleratorSession &session_;
    std::chrono::steady_clock::time_point start_;
};

// --- Paper-literal API (Section III-E) ---------------------------------

/**
 * Image builder callback: wires the design for one pipeline into the
 * session's simulator. `input(colname)` uploads the host data configured
 * for that column (via configure_mem) and returns its device buffer; the
 * builder must create output buffers via session.configureOutput() for
 * every writer column, using the writer column's configured name so that
 * genesis_flush can route results back to the host.
 */
using ImageBuilder = std::function<void(
    AcceleratorSession &session,
    const std::function<modules::ColumnBuffer *(const std::string &)>
        &input)>;

/** Load a hardware image for the given pipeline ids. */
void genesis_load_image(ImageBuilder builder, int num_pipelines,
                        const RuntimeConfig &config = RuntimeConfig());

/** Release all pipeline state created by genesis_load_image. */
void genesis_unload_image();

/**
 * Configure one memory reader or writer (blocking; copies reader data to
 * the accelerator). Matches the paper's signature: `addr` points to
 * host column data of `len` elements of `elemsize` bytes. For writer
 * columns pass the destination host buffer (filled by genesis_flush).
 */
void configure_mem(void *addr, int elemsize, int len,
                   const std::string &colname, int pipelineID);

/** Start execution (non-blocking). */
void run_genesis(int pipelineID);

/** @return true when the pipeline's execution completed (non-blocking). */
bool check_genesis(int pipelineID);

/** Block until the pipeline's execution completes. */
void wait_genesis(int pipelineID);

/** Copy output data back to the host addresses from configure_mem. */
void genesis_flush(int pipelineID);

/** @return the timing ledger of a pipeline (for reporting). */
TimingBreakdown genesis_timing(int pipelineID);

/**
 * Record every subsequently run pipeline into `sink` (one trace process
 * per run_genesis call, named "pipeline<id>"). Pass nullptr to disable.
 * The sink must outlive the loaded image; export it after genesis_flush
 * / wait_genesis via TraceSink::finish() + writeJsonFile().
 */
void genesis_trace(TraceSink *sink);

} // namespace genesis::runtime

#endif // GENESIS_RUNTIME_API_H
