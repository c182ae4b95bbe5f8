/**
 * @file
 * BatchRunner: shard a workload across concurrent accelerator sessions.
 *
 * The paper's host runtime keeps several pipelines in flight at once
 * (Section III-E): while one pipeline executes on the accelerator, the
 * host encodes and DMAs the next shard's inputs. BatchRunner packages
 * that pattern: it owns N "lanes", each holding one single-shot
 * AcceleratorSession, deals shard k to lane k mod N, and only blocks on
 * a lane when it is that lane's turn to take a new shard. Host-side
 * build/encode of shard k+1 therefore overlaps accelerator execution of
 * shards k, k-1, ... (double-buffering with N buffers).
 *
 * Per-shard TimingBreakdowns and cycle counts are merged into one
 * BatchStats ledger. When tracing is enabled each shard records into a
 * private TraceSink (a shared sink is single-writer) and the recordings
 * are adopted into the user's sink as shards retire, so the exported
 * trace shows every shard as its own process.
 *
 * Thread-safety: a BatchRunner instance must be driven from one host
 * thread; the concurrency is internal (the lanes' worker threads).
 */

#ifndef GENESIS_RUNTIME_BATCH_H
#define GENESIS_RUNTIME_BATCH_H

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/api.h"

namespace genesis::runtime {

/** Configuration for one sharded batch execution. */
struct BatchConfig {
    /** Concurrent pipeline slots (sessions in flight at once). */
    int numLanes = 4;
    /**
     * Per-shard session configuration. When runtime.trace is set the
     * batch records each shard into the sink as one process named
     * "<traceLabel>.shard<k>" (the sink itself is never handed to a
     * running session; see file comment).
     */
    RuntimeConfig runtime;
    /**
     * When set, every shard's session runs over this shared (persistent)
     * device memory instead of a private one — uploads survive the
     * batch, so cached columns (DeviceMemory::acquireCached) can be
     * reused across shards and batches. The memory must outlive the
     * run. Lanes execute concurrently, so ShardBuild must scope buffer
     * names per shard (e.g. "s<k>.") and ShardCollect should release
     * what the shard uploaded, or the batch leaks device space.
     */
    DeviceMemory *sharedDevice = nullptr;
};

/** Merged results of one BatchRunner::run(). */
struct BatchStats {
    /** Sum of every shard's host / DMA / accelerator breakdown. */
    TimingBreakdown timing;
    /** Sum of every shard's simulated cycles. */
    uint64_t totalCycles = 0;
    /** Number of shards executed. */
    size_t shards = 0;
    /** Host wall-clock seconds for the whole batch. */
    double wallSeconds = 0.0;
};

/** Runs a sharded workload over N concurrent accelerator sessions. */
class BatchRunner
{
  public:
    /**
     * Build shard `shard`'s design into a fresh session: configure its
     * input columns (configureMem), wire the pipeline into
     * session.sim(), and allocate output buffers. Runs on the host
     * thread, overlapped with other shards' accelerator execution —
     * time it with a ScopedTimer (base/timer.h) inside if host encode
     * time should be attributed (the runner itself does not guess).
     */
    using ShardBuild =
        std::function<void(size_t shard, AcceleratorSession &session)>;

    /**
     * Collect shard `shard`'s results from a finished (joined) session:
     * flush output buffers and merge them into host-side state. Runs on
     * the host thread, serialized in retire order within a lane.
     */
    using ShardCollect =
        std::function<void(size_t shard, AcceleratorSession &session)>;

    explicit BatchRunner(const BatchConfig &config);

    /**
     * Execute `num_shards` shards across the configured lanes.
     * @return merged timing / cycle statistics for the whole batch
     */
    BatchStats run(size_t num_shards, const ShardBuild &build,
                   const ShardCollect &collect);

  private:
    BatchConfig config_;
};

} // namespace genesis::runtime

#endif // GENESIS_RUNTIME_BATCH_H
