/**
 * @file
 * Multi-tenant accelerator service: a queue-fronted scheduler over a
 * fleet of simulated boards.
 *
 * The paper's host runtime keeps several pipelines in flight per board
 * (Section III-E); this layer grows that into a long-lived service:
 * many concurrent client threads submit jobs through a bounded request
 * queue with admission control (a full queue rejects with a reason
 * instead of blocking the client), and a scheduler places admitted
 * jobs onto a fleet of N boards x M pipeline slots. Each board owns a
 * persistent DeviceMemory whose keyed column cache lets repeat queries
 * over the same table skip configure_mem (DMA-in) entirely.
 *
 * Scheduling: jobs are ordered by priority (higher first); among equal
 * priorities the policy decides — Priority is FIFO, WeightedFair runs
 * start-time fair queueing over per-tenant virtual time, so a tenant
 * with weight w receives a w-proportional share of the fleet under
 * contention while an idle tenant's unused share is redistributed.
 *
 * Accounting: every job's simulated accelerator seconds are credited
 * to its tenant and to the fleet ledger, and priced with
 * cost::runCost over the configured instance (f1.2xlarge by default),
 * so per-tenant dollars always sum to the fleet total.
 *
 * Thread-safety: submit()/usage()/cacheStats()/fleet totals may be
 * called from any number of client threads; worker threads (one per
 * board slot) execute jobs. stop() drains and joins.
 */

#ifndef GENESIS_SERVICE_SERVICE_H
#define GENESIS_SERVICE_SERVICE_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost.h"
#include "runtime/api.h"

namespace genesis::service {

/** Scheduling discipline among equal-priority jobs. */
enum class SchedPolicy {
    Priority,     ///< strict priority, FIFO within a level
    WeightedFair, ///< priority, then weighted fair queueing by tenant
};

/** Fleet + queue + policy configuration. */
struct ServiceConfig {
    /** Simulated boards in the fleet. */
    int numBoards = 2;
    /** Concurrent pipeline slots per board. */
    int slotsPerBoard = 2;
    /** Bounded request-queue depth; submissions beyond it are rejected. */
    size_t queueCapacity = 64;
    SchedPolicy policy = SchedPolicy::WeightedFair;
    /** Per-board device DRAM capacity. */
    uint64_t deviceCapacityBytes = runtime::DeviceMemory::kDefaultCapacity;
    /** Per-board column-cache high-water mark (0 = device capacity). */
    uint64_t cacheCapacityBytes = 0;
    /** When false, cached inputs degrade to per-job uploads. */
    bool enableCache = true;
    /** Session configuration for every job (clock, DMA, memory). */
    runtime::RuntimeConfig runtime;
    /** Instance whose hourly price the accounting uses. */
    cost::InstanceSpec billing = cost::InstanceSpec::f1_2xlarge();

    /**
     * Apply GENESIS_SERVICE_* environment overrides: BOARDS, SLOTS,
     * QUEUE_CAP, NO_CACHE (1 disables the column cache), DEVICE_MB
     * (device capacity), CACHE_MB (cache high-water).
     */
    static ServiceConfig fromEnv(ServiceConfig base);
    static ServiceConfig fromEnv();
};

class AcceleratorService;

/**
 * Build-time view of one job: wraps the job's private session (its own
 * Simulator) plus the board's shared, cached device memory. Buffer
 * names are scoped per job, so concurrent jobs on one board never
 * collide; cached inputs are shared across jobs by key.
 */
class JobContext
{
  public:
    runtime::AcceleratorSession &session() { return *session_; }
    sim::Simulator &sim() { return session_->sim(); }

    /**
     * Configure an input column through the board's column cache:
     * `key` names the column image (e.g. "tableX.QUAL.chunk3"); a
     * resident key skips the upload and DMA-in entirely. An empty key
     * opts out of caching (per-job upload, released at retire).
     */
    modules::ColumnBuffer *input(const std::string &key,
                                 std::vector<int64_t> elements,
                                 std::vector<uint32_t> row_lengths,
                                 uint32_t elem_size_bytes);

    /**
     * Allocate a per-job output buffer; it is flushed into the
     * JobResult (under this unscoped name) when the run retires.
     */
    modules::ColumnBuffer *output(const std::string &name,
                                  uint32_t elem_size_bytes);

    /** Board index the job landed on (stable during build/run). */
    int board() const { return board_; }
    /** Slot index within the board. */
    int slot() const { return slot_; }

  private:
    friend class AcceleratorService;
    JobContext(runtime::AcceleratorSession *session,
               runtime::DeviceMemory *device, std::string scope,
               bool cache_enabled, int board, int slot)
        : session_(session), device_(device), scope_(std::move(scope)),
          cacheEnabled_(cache_enabled), board_(board), slot_(slot)
    {
    }

    runtime::AcceleratorSession *session_;
    runtime::DeviceMemory *device_;
    /** Per-job name prefix ("j<seq>."). */
    std::string scope_;
    bool cacheEnabled_;
    int board_;
    int slot_;
    /** Cached keys pinned by this job (unpinned at retire). */
    std::vector<std::string> pinnedKeys_;
    /** Per-job buffer names to release at retire (inputs + outputs). */
    std::vector<std::string> jobBuffers_;
    /** Output buffers: unscoped name -> scoped device name. */
    std::vector<std::pair<std::string, std::string>> outputs_;
    size_t cacheHits_ = 0;
    size_t cacheMisses_ = 0;
};

/** Wires one job's pipeline into its session. May throw FatalError. */
using JobBuild = std::function<void(JobContext &)>;

/** One client request. */
struct JobRequest {
    std::string tenant = "default";
    /** Higher runs first. */
    int priority = 0;
    /**
     * Relative size hint for weighted-fair virtual time (e.g. row
     * count); only ratios between jobs matter.
     */
    double costHint = 1.0;
    JobBuild build;
};

/** One flushed output column. */
struct JobOutput {
    std::string name;
    std::vector<int64_t> elements;
    std::vector<uint32_t> rowLengths;
};

/** Completion record delivered through the admission future. */
struct JobResult {
    bool ok = false;
    /** FatalError text when ok is false. */
    std::string error;
    std::vector<JobOutput> outputs;
    runtime::TimingBreakdown timing;
    uint64_t cycles = 0;
    int board = -1;
    int slot = -1;
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    /** Seconds from admission to dispatch. */
    double queueSeconds = 0.0;
    /** Seconds from dispatch to completion (host wall clock). */
    double serviceSeconds = 0.0;
    /** runCost of the job's simulated accelerator seconds. */
    double dollars = 0.0;
};

/** Outcome of submit(): admitted with a future, or rejected. */
struct Admission {
    bool accepted = false;
    /** Rejection reason ("queue full (capacity 64)", "stopped"). */
    std::string reason;
    /** Valid when accepted. */
    std::shared_future<JobResult> result;
};

/** Per-tenant ledger snapshot. */
struct TenantUsage {
    std::string tenant;
    double weight = 1.0;
    size_t submitted = 0;
    size_t completed = 0;
    size_t failed = 0;
    size_t rejected = 0;
    double accelSeconds = 0.0;
    double dmaSeconds = 0.0;
    /** runCost of accelSeconds on the configured billing instance. */
    double dollars = 0.0;
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
};

/** The queue-fronted fleet scheduler. */
class AcceleratorService
{
  public:
    explicit AcceleratorService(const ServiceConfig &config);
    ~AcceleratorService();

    AcceleratorService(const AcceleratorService &) = delete;
    AcceleratorService &operator=(const AcceleratorService &) = delete;

    const ServiceConfig &config() const { return config_; }

    /** Set a tenant's fair-share weight (default 1.0). */
    void setTenantWeight(const std::string &tenant, double weight);

    /**
     * Submit a job. Never blocks on the fleet: a full queue or a
     * stopped service rejects with a reason. Thread-safe.
     */
    Admission submit(JobRequest request);

    /** Block until the queue is empty and every slot is idle. */
    void drain();

    /** Reject new work, drain in-flight jobs, join the workers. */
    void stop();

    /** Snapshot of every tenant's ledger (sorted by tenant name). */
    std::vector<TenantUsage> usage() const;

    /** Fleet-total simulated accelerator seconds. */
    double fleetAccelSeconds() const;

    /** runCost of the fleet-total accelerator seconds. */
    double fleetDollars() const;

    /** Summed cache counters across the fleet's boards. */
    runtime::DeviceMemory::CacheStats cacheStats() const;

    /** Jobs rejected by admission control since construction. */
    size_t rejectedJobs() const;

  private:
    /** One simulated board: persistent, cached device memory. */
    struct Board {
        std::unique_ptr<runtime::DeviceMemory> memory;
    };

    /** One queued job. */
    struct PendingJob {
        JobRequest request;
        uint64_t seq = 0;
        /** Start-time-fair-queueing virtual start time. */
        double vtime = 0.0;
        std::chrono::steady_clock::time_point admitted;
        std::shared_ptr<std::promise<JobResult>> promise;
    };

    /** Mutable per-tenant scheduler + ledger state. */
    struct TenantState {
        double weight = 1.0;
        /** Virtual finish time of the tenant's last admitted job. */
        double lastFinish = 0.0;
        TenantUsage ledger;
    };

    void workerLoop(int board, int slot);
    /** Pop the next job per policy. Caller holds queueMutex_. */
    PendingJob takeNextLocked();
    JobResult runJob(PendingJob &job, int board, int slot);

    ServiceConfig config_;
    std::vector<Board> boards_;
    std::vector<std::thread> workers_;

    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    /** Signalled when a job retires (drain watches queue + busy). */
    std::condition_variable idleCv_;
    std::deque<PendingJob> queue_;
    int busySlots_ = 0;
    bool stopping_ = false;
    uint64_t nextSeq_ = 0;
    /** Global virtual time (max vtime ever dispatched). */
    double globalVtime_ = 0.0;

    mutable std::mutex ledgerMutex_;
    std::map<std::string, TenantState> tenants_;
    double fleetAccelSeconds_ = 0.0;
    size_t rejected_ = 0;
};

} // namespace genesis::service

#endif // GENESIS_SERVICE_SERVICE_H
