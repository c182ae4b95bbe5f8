/**
 * @file
 * Timing model of the accelerator-attached DRAM (the F1 card's 64 GB).
 *
 * Requests flow through the two-level arbitration of paper Figure 8:
 * each pipeline's memory modules share a port, ports are grouped under
 * local arbiters (one per group of pipelines), and one global arbiter per
 * memory channel picks among local arbiters. Addresses interleave across
 * channels at access granularity, so a request that crosses an
 * interleave boundary is split at issue time into sub-requests that each
 * land on their true channel; adjacent same-direction sub-requests from
 * one port coalesce MSHR-style into a single burst. Each channel owns a
 * set of DRAM banks with open-row state: an access to the bank's open
 * row pays the (short) row-hit latency, any other access pays the full
 * row-miss latency, and independent banks overlap their access phases
 * while the channel's data bus serializes transfers at a fixed
 * bytes/cycle rate.
 *
 * The memory system models *timing only* — data contents live in the
 * runtime's device buffers, which the memory reader/writer modules hold
 * directly. This separation keeps the timing model exact while avoiding a
 * byte-accurate DRAM image.
 */

#ifndef GENESIS_SIM_MEMORY_H
#define GENESIS_SIM_MEMORY_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/trace.h"
#include "sim/arbiter.h"
#include "sim/wait.h"

namespace genesis::sim {

/** Memory system configuration. */
struct MemoryConfig {
    /** Independent DRAM channels (F1 card: 4). */
    int numChannels = 4;
    /** Data-bus bandwidth per channel in bytes per accelerator cycle
     *  (16 B/cycle at 250 MHz = 4 GB/s per channel, 16 GB/s total). */
    uint32_t bytesPerCyclePerChannel = 16;
    /** Row-miss access latency in cycles before data starts returning
     *  (precharge + activate + CAS; also the cold-bank latency). */
    uint32_t latencyCycles = 40;
    /** Row-hit access latency (CAS only). 0 = derive latencyCycles/2. */
    uint32_t rowHitLatencyCycles = 0;
    /** Channel-interleave / request-size granularity in bytes
     *  (Section III-C: e.g. 64 B). Must be a non-zero power of two. */
    uint32_t accessGranularity = 64;
    /** DRAM banks per channel (open-row state and access overlap). */
    int banksPerChannel = 8;
    /** Row-buffer size per bank in channel-local bytes. Must be a
     *  multiple of accessGranularity. */
    uint32_t rowBytes = 2048;
    /** Cap on one coalesced burst (>= accessGranularity). */
    uint32_t maxBurstBytes = 256;
    /** Outstanding sub-requests a port may queue. canIssue() is a
     *  credit check against this depth; a single issue() may split into
     *  several sub-requests and briefly overshoot it. */
    size_t portQueueDepth = 8;
};

/**
 * Up-front validation of one memory configuration. Returns one
 * "<field>: <problem>" line per invalid field (empty = valid), so a
 * caller sweeping arbitrary configurations (the DSE harness) can report
 * a clean per-point error naming the offending knob instead of dying
 * deep inside the model. MemorySystem's constructor fatals with these
 * same messages.
 */
std::vector<std::string> validate(const MemoryConfig &config);

class MemorySystem;

/**
 * One requester's interface to the memory system. Each hardware pipeline
 * owns a port; all of its memory readers/writers issue through it.
 * Completions retire in issue order (the DMA engine reorders internally).
 */
class MemoryPort
{
  public:
    /** @return true when the port queue can accept a request. */
    bool canIssue() const;

    /**
     * Queue a request for [addr, addr+bytes). The request is split at
     * interleave-granularity boundaries into per-channel sub-requests;
     * a sub-request that extends the port's youngest still-unscheduled
     * sub-request (same direction, channel, bank and row, contiguous
     * address) coalesces into it up to MemoryConfig::maxBurstBytes.
     */
    void issue(uint64_t addr, uint32_t bytes, bool is_write);

    /** @return read bytes completed since the last call (and reset). */
    uint64_t takeCompletedReadBytes();

    /** @return true when no requests are outstanding. */
    bool idle() const { return pending_.empty(); }

    /** @return sub-requests queued or in flight (deadlock diagnostics). */
    size_t outstanding() const { return pending_.size(); }

    int id() const { return id_; }
    int group() const { return group_; }

    /** @return the owning system's channel-interleave granularity. */
    uint32_t accessGranularity() const;

    /**
     * accessGranularity() with a caller-named fatal() on a zero or
     * non-power-of-two value. Memory modules call this at construction
     * instead of hardcoding their own chunk-size constants.
     */
    uint32_t checkedAccessGranularity(const char *who) const;

    /** @return total write bytes fully retired so far. */
    uint64_t retiredWriteBytes() const { return retiredWriteBytes_; }

    /**
     * Sleepers blocked on this port, fired whenever a sub-request
     * retires. Retirement is the port's only externally visible event:
     * it delivers read data (takeCompletedReadBytes), advances the write
     * high-water mark (retiredWriteBytes) and frees issue credit
     * (canIssue), so one list covers all three wait reasons.
     */
    WaitList &retireWaiters() { return retireWaiters_; }

  private:
    friend class MemorySystem;

    /** One granularity-bounded slice of an issued request, pinned to the
     *  channel/bank/row its own start address maps to. */
    struct SubRequest {
        uint64_t addr = 0;
        uint32_t bytes = 0;
        bool isWrite = false;
        bool scheduled = false;
        int channel = 0;
        int bank = 0;
        /** Channel-local row index (unique per bank+row pair). */
        uint64_t row = 0;
        uint64_t completeCycle = 0;
        /** Memory cycle this slice was issued on. The burst-coalescing
         *  rule reads it (see enqueueSlice): a head issued this cycle
         *  cannot have been granted yet, an older head may have been. */
        uint64_t issueCycle = 0;
        /** Async-lifetime id when tracing (0 = untraced). */
        uint64_t traceId = 0;
    };

    MemoryPort(int id, int group, MemorySystem *owner)
        : id_(id), group_(group), owner_(owner)
    {
    }

    /** Append one sub-request slice, coalescing into the tail if legal. */
    void enqueueSlice(uint64_t addr, uint32_t bytes, bool is_write);

    int id_;
    int group_;
    MemorySystem *owner_;
    size_t queueDepth_ = 8;
    std::deque<SubRequest> pending_;
    uint64_t completedReadBytes_ = 0;
    uint64_t retiredWriteBytes_ = 0;
    /** Sleeping modules woken when a sub-request retires. */
    WaitList retireWaiters_;
    /** Tracing attachment (set by MemorySystem::attachTrace). */
    TraceSink *trace_ = nullptr;
    const uint64_t *traceCycle_ = nullptr;
    int traceTrack_ = -1;
    TraceSink::StateId stateRead_ = 0;
    TraceSink::StateId stateWrite_ = 0;
    TraceSink::StateId stateCoalesce_ = 0;
};

/** The timing model proper. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryConfig &config = MemoryConfig());

    const MemoryConfig &config() const { return config_; }

    /**
     * Create a port for one memory module.
     * @param local_group index of the local arbiter (one per hardware
     *        pipeline in Figure 8) this port hangs off
     */
    MemoryPort *makePort(int local_group = 0);

    /** Advance one cycle: arbitrate, schedule, retire. */
    void tick();

    /** @return true when every port is idle. */
    bool idle() const;

    uint64_t cycle() const { return cycle_; }

    /** Sentinel for nextEventCycle(): no future event is pending. */
    static constexpr uint64_t kNoEvent = ~0ull;

    /**
     * @return the earliest future cycle at which this memory system can
     * change state or change its per-cycle stat accrual: a scheduled
     * head completing, an unscheduled head reaching its earliest
     * grantable cycle (bus and bank expired — conservative: it may
     * still lose arbitration there), or a busy channel's data bus
     * freeing up (which flips busy/idle accrual). Bank expiries are
     * folded into the grantable bound — a busy bank is only observable
     * through a blocked front head. Between now and the returned cycle
     * every tick() is a no-op apart from uniform per-cycle stat
     * counting, so the simulator may skip the span. kNoEvent when
     * nothing is pending.
     */
    uint64_t nextEventCycle() const;

    /**
     * Jump the clock forward over a span that nextEventCycle() proved
     * event-free. Stat accrual for the skipped ticks is credited by the
     * caller (Simulator::run's bulk-crediting), not here.
     */
    void fastForward(uint64_t cycles) { cycle_ += cycles; }

    /**
     * Advance `cycles` ticks of a span the caller proved event-free via
     * nextEventCycle() (every tick in it is a state no-op), crediting
     * the uniform per-cycle stat accrual in bulk instead of ticking.
     * Unlike fastForward() this accounts the skipped ticks itself, so
     * standalone drivers (bench/sim_membw's event-jump loop) stay
     * bit-identical to a tick-by-tick run without simulator help.
     * Falls back to real ticks under tracing.
     */
    void tickQuiet(uint64_t cycles);

    /** Redirect progress reporting to a simulator-owned counter. */
    void attachProgress(uint64_t *counter);

    /**
     * Record memory activity into `sink` under process `pid`: one async
     * track per port carrying each sub-request's issue -> schedule ->
     * retire lifetime (coalesced slices appear as instants on the burst
     * they merged into), and one span track per channel showing data-bus
     * busy intervals. Covers existing and subsequently created ports.
     */
    void attachTrace(TraceSink *sink, int pid);

    size_t numPorts() const { return ports_.size(); }
    const MemoryPort &port(size_t i) const { return *ports_[i]; }

    /** @return bytes scheduled onto one channel so far. */
    uint64_t channelBytes(int channel) const;

    /**
     * Verify channel_busy_cycles + channel_idle_cycles ==
     * numChannels x elapsed cycles (every channel accrues exactly one of
     * the two each cycle, normal ticking and idle fast-forward alike).
     * Panics on drift; called from the deadlock dumpState path.
     */
    void assertStatInvariant() const;

    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }

  private:
    friend class MemoryPort;

    /** Open-row and access-phase state of one DRAM bank. */
    struct Bank {
        /** Channel-local row index currently open (kNoRow = closed). */
        uint64_t openRow = kNoRow;
        /** Cycle at which the access phase completes (bank reusable). */
        uint64_t busyUntil = 0;
    };
    static constexpr uint64_t kNoRow = ~0ull;

    /** DRAM coordinates of one address under channel interleaving. */
    struct DramLoc {
        int channel = 0;
        int bank = 0;
        /** Channel-local row index (unique per bank+row pair). */
        uint64_t row = 0;
    };
    DramLoc locate(uint64_t addr) const;

    Bank &bankAt(int channel, int bank);
    const Bank &bankAt(int channel, int bank) const;

    void attachPortTrace(MemoryPort &port);

    /** Grant at most one unscheduled head per free channel this cycle
     *  (tick()'s scheduling phase). */
    void arbitrate();

    /** True when some unscheduled head bound for `ch` waits only on a
     *  bank still busy at memory cycle `at` (the bank-conflict stat
     *  accrual: tick() asks about its own cycle, tickQuiet() about the
     *  span's first skipped tick). */
    bool channelHasBankConflict(int ch, uint64_t at) const;

    MemoryConfig config_;
    std::vector<std::unique_ptr<MemoryPort>> ports_;
    /** Port indices per local-arbiter group. */
    std::vector<std::vector<size_t>> groupPorts_;
    /** Cycle at which each channel's data bus frees up. */
    std::vector<uint64_t> channelBusyUntil_;
    /** Bank state, numChannels x banksPerChannel, channel-major. */
    std::vector<Bank> banks_;
    /** One global arbiter per channel, selecting among local groups. */
    std::vector<RoundRobinArbiter> globalArbiters_;
    /** One local arbiter per port group, selecting among its ports. */
    std::vector<RoundRobinArbiter> localArbiters_;
    /** Per-tick scratch: groups already granted a channel this cycle. */
    std::vector<char> groupUsedScratch_;
    /** Sub-requests in flight across all ports. Zero lets tick() skip
     *  arbitration, the bank-conflict scan and retirement entirely, so
     *  per-cycle memory cost tracks traffic rather than port count. */
    size_t pendingSubRequests_ = 0;
    /** In-flight sub-requests not yet granted a channel slot; zero lets
     *  tick() skip the arbitration scan while transfers drain. */
    size_t unscheduledSubRequests_ = 0;
    uint64_t cycle_ = 0;
    StatRegistry stats_;
    /** Interned hot-path stat handles. */
    StatRegistry::Counter requests_ = stats_.counter("requests");
    StatRegistry::Counter subRequests_ = stats_.counter("sub_requests");
    StatRegistry::Counter coalesced_ =
        stats_.counter("coalesced_sub_requests");
    StatRegistry::Counter readBytes_ = stats_.counter("read_bytes");
    StatRegistry::Counter writeBytes_ = stats_.counter("write_bytes");
    StatRegistry::Counter rowHits_ = stats_.counter("row_hits");
    StatRegistry::Counter rowMisses_ = stats_.counter("row_misses");
    StatRegistry::Counter bankConflictCycles_ =
        stats_.counter("bank_conflict_cycles");
    StatRegistry::Counter channelBusyCycles_ =
        stats_.counter("channel_busy_cycles");
    StatRegistry::Counter channelIdleCycles_ =
        stats_.counter("channel_idle_cycles");
    /** Per-channel scheduled-byte counters ("chN_bytes"). */
    std::vector<StatRegistry::Counter> channelBytes_;
    /** Fallback target so standalone systems work without a Simulator. */
    uint64_t localProgress_ = 0;
    uint64_t *progress_ = &localProgress_;
    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    int tracePid_ = -1;
    std::vector<int> channelTracks_;
    TraceSink::StateId stateSchedule_ = 0;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_MEMORY_H
