#include "sim/memory.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::sim {

bool
MemoryPort::canIssue() const
{
    return pending_.size() < queueDepth_;
}

uint32_t
MemoryPort::accessGranularity() const
{
    return owner_->config().accessGranularity;
}

uint32_t
MemoryPort::checkedAccessGranularity(const char *who) const
{
    uint32_t gran = accessGranularity();
    if (gran == 0 || (gran & (gran - 1)))
        fatal("%s: access granularity %u is not a non-zero power of two",
              who, gran);
    return gran;
}

void
MemoryPort::enqueueSlice(uint64_t addr, uint32_t bytes, bool is_write)
{
    MemorySystem::DramLoc loc = owner_->locate(addr);

    // MSHR-style coalescing: a slice that directly extends the youngest
    // still-unscheduled sub-request (same direction, same channel, same
    // bank and row, contiguous address) joins its burst instead of
    // paying a second access. Typical case: the tail slice of one
    // unaligned streaming request and the head slice of the next fall
    // into the same interleave granule.
    //
    // The MSHR closes a burst entry once it reaches the head of the
    // schedule queue in a cycle after its issue: only deque heads are
    // ever considered by arbitration, so a same-cycle tail or a
    // non-head tail provably cannot have been granted yet, while an
    // aged head may be granted at any tick. The decision rests on
    // (position, age), never on whether the head happened to win
    // arbitration, so it is a function of port-local state alone.
    if (!pending_.empty()) {
        SubRequest &tail = pending_.back();
        bool burst_open = !tail.scheduled &&
            (pending_.size() >= 2 || tail.issueCycle == owner_->cycle_);
        if (burst_open && tail.isWrite == is_write &&
            tail.channel == loc.channel && tail.bank == loc.bank &&
            tail.row == loc.row && tail.addr + tail.bytes == addr &&
            tail.bytes + bytes <= owner_->config().maxBurstBytes) {
            tail.bytes += bytes;
            ++*owner_->coalesced_;
            if (trace_) {
                trace_->asyncInstant(traceTrack_, tail.traceId,
                                     *traceCycle_, stateCoalesce_,
                                     traceArgs("bytes", tail.bytes));
            }
            return;
        }
    }

    SubRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.isWrite = is_write;
    req.channel = loc.channel;
    req.bank = loc.bank;
    req.row = loc.row;
    req.issueCycle = owner_->cycle_;
    if (trace_) {
        req.traceId = trace_->newAsyncId();
        trace_->asyncBegin(traceTrack_, req.traceId, *traceCycle_,
                           is_write ? stateWrite_ : stateRead_,
                           traceArgs("addr", addr, "bytes", bytes,
                                     "channel",
                                     static_cast<uint64_t>(loc.channel)));
    }
    pending_.push_back(req);
    ++*owner_->subRequests_;
    ++owner_->pendingSubRequests_;
    ++owner_->unscheduledSubRequests_;
}

void
MemoryPort::issue(uint64_t addr, uint32_t bytes, bool is_write)
{
    if (!canIssue())
        panic("memory port %d: issue to full queue", id_);
    if (bytes == 0)
        panic("memory port %d: zero-byte request", id_);

    // Split at interleave-granularity boundaries so every slice lands on
    // the channel its own address maps to; the old model timed a whole
    // request on the channel of its first byte.
    const uint64_t gran = owner_->config().accessGranularity;
    uint64_t cur = addr;
    const uint64_t end = addr + bytes;
    while (cur < end) {
        uint64_t granule_end = (cur / gran + 1) * gran;
        uint32_t slice =
            static_cast<uint32_t>(std::min(end, granule_end) - cur);
        enqueueSlice(cur, slice, is_write);
        cur += slice;
    }
    ++*owner_->requests_;
    ++*owner_->progress_; // issuing is architectural progress
}

uint64_t
MemoryPort::takeCompletedReadBytes()
{
    uint64_t bytes = completedReadBytes_;
    completedReadBytes_ = 0;
    return bytes;
}

std::vector<std::string>
validate(const MemoryConfig &config)
{
    std::vector<std::string> errors;
    if (config.numChannels < 1) {
        errors.push_back(strfmt("numChannels: need at least one channel "
                                "(got %d)", config.numChannels));
    }
    if (config.bytesPerCyclePerChannel == 0) {
        errors.push_back("bytesPerCyclePerChannel: channel bandwidth "
                         "must be non-zero");
    }
    if (config.accessGranularity == 0 ||
        (config.accessGranularity & (config.accessGranularity - 1))) {
        errors.push_back(strfmt("accessGranularity: %u is not a non-zero "
                                "power of two", config.accessGranularity));
    }
    if (config.banksPerChannel < 1) {
        errors.push_back(strfmt("banksPerChannel: need at least one bank "
                                "per channel (got %d)",
                                config.banksPerChannel));
    }
    // Row/burst constraints are relative to the granularity; only check
    // them when the granularity itself is sane to avoid noise.
    if (config.accessGranularity != 0 &&
        !(config.accessGranularity & (config.accessGranularity - 1))) {
        if (config.rowBytes < config.accessGranularity ||
            config.rowBytes % config.accessGranularity) {
            errors.push_back(strfmt(
                "rowBytes: row size %u must be a non-zero multiple of "
                "the %u B granularity", config.rowBytes,
                config.accessGranularity));
        }
        if (config.maxBurstBytes < config.accessGranularity) {
            errors.push_back(strfmt(
                "maxBurstBytes: max burst %u below the %u B access "
                "granularity", config.maxBurstBytes,
                config.accessGranularity));
        }
    }
    if (config.portQueueDepth == 0) {
        errors.push_back("portQueueDepth: a zero-depth port queue can "
                         "never issue (provable deadlock)");
    }
    return errors;
}

MemorySystem::MemorySystem(const MemoryConfig &config) : config_(config)
{
    std::vector<std::string> errors = validate(config_);
    if (!errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += (joined.empty() ? "" : "; ") + e;
        fatal("invalid MemoryConfig: %s", joined.c_str());
    }
    if (config_.rowHitLatencyCycles == 0)
        config_.rowHitLatencyCycles = config_.latencyCycles / 2;

    channelBusyUntil_.assign(static_cast<size_t>(config_.numChannels), 0);
    banks_.assign(static_cast<size_t>(config_.numChannels) *
                      static_cast<size_t>(config_.banksPerChannel),
                  Bank());
    globalArbiters_.assign(static_cast<size_t>(config_.numChannels),
                           RoundRobinArbiter());
    channelBytes_.reserve(static_cast<size_t>(config_.numChannels));
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        channelBytes_.push_back(
            stats_.counter("ch" + std::to_string(ch) + "_bytes"));
    }
}

MemorySystem::DramLoc
MemorySystem::locate(uint64_t addr) const
{
    // Granules interleave round-robin over channels; the channel-local
    // address (granule index within the channel, plus the offset inside
    // the granule) then maps to a row, and consecutive rows interleave
    // over the channel's banks.
    const uint64_t gran = config_.accessGranularity;
    const uint64_t channels = static_cast<uint64_t>(config_.numChannels);
    uint64_t granule = addr / gran;
    uint64_t local = (granule / channels) * gran + (addr % gran);
    uint64_t row = local / config_.rowBytes;
    DramLoc loc;
    loc.channel = static_cast<int>(granule % channels);
    loc.bank = static_cast<int>(
        row % static_cast<uint64_t>(config_.banksPerChannel));
    loc.row = row;
    return loc;
}

MemorySystem::Bank &
MemorySystem::bankAt(int channel, int bank)
{
    return banks_[static_cast<size_t>(channel) *
                      static_cast<size_t>(config_.banksPerChannel) +
                  static_cast<size_t>(bank)];
}

const MemorySystem::Bank &
MemorySystem::bankAt(int channel, int bank) const
{
    return banks_[static_cast<size_t>(channel) *
                      static_cast<size_t>(config_.banksPerChannel) +
                  static_cast<size_t>(bank)];
}

void
MemorySystem::attachProgress(uint64_t *counter)
{
    progress_ = counter;
}

void
MemorySystem::attachPortTrace(MemoryPort &port)
{
    port.trace_ = trace_;
    port.traceCycle_ = &cycle_;
    port.traceTrack_ = trace_->addAsyncTrack(
        tracePid_, "mem.port" + std::to_string(port.id_));
    port.stateRead_ = trace_->internState("read");
    port.stateWrite_ = trace_->internState("write");
    port.stateCoalesce_ = trace_->internState("coalesce");
}

void
MemorySystem::attachTrace(TraceSink *sink, int pid)
{
    trace_ = sink;
    tracePid_ = pid;
    stateSchedule_ = sink->internState("schedule");
    channelTracks_.clear();
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        channelTracks_.push_back(
            sink->addSpanTrack(pid, "mem.ch" + std::to_string(ch)));
    }
    for (auto &port : ports_)
        attachPortTrace(*port);
}

MemoryPort *
MemorySystem::makePort(int local_group)
{
    if (local_group < 0)
        fatal("negative local arbiter group");
    int id = static_cast<int>(ports_.size());
    auto port =
        std::unique_ptr<MemoryPort>(new MemoryPort(id, local_group, this));
    port->queueDepth_ = config_.portQueueDepth;
    port->retireWaiters_.setName("mem.port" + std::to_string(id) +
                                 " retire");
    if (trace_)
        attachPortTrace(*port);
    ports_.push_back(std::move(port));

    size_t num_groups = static_cast<size_t>(local_group) + 1;
    if (groupPorts_.size() < num_groups) {
        groupPorts_.resize(num_groups);
        localArbiters_.resize(num_groups);
    }
    groupPorts_[static_cast<size_t>(local_group)].push_back(
        static_cast<size_t>(id));
    localArbiters_[static_cast<size_t>(local_group)].resize(
        groupPorts_[static_cast<size_t>(local_group)].size());
    for (auto &arb : globalArbiters_)
        arb.resize(groupPorts_.size());
    return ports_.back().get();
}

uint64_t
MemorySystem::channelBytes(int channel) const
{
    return *channelBytes_[static_cast<size_t>(channel)];
}

void
MemorySystem::tick()
{
    ++cycle_;

    if (pendingSubRequests_ == 0) {
        // Nothing in flight on any port: arbitration, the bank-conflict
        // scan and retirement are all no-ops, and every channel bus is
        // provably free (a request retires no earlier than its channel's
        // transfer window closes, so an empty pending set implies every
        // channelBusyUntil_ has already expired). Accrue the idle stat
        // and return; stats stay bit-identical to the full scan.
        *channelIdleCycles_ += static_cast<uint64_t>(config_.numChannels);
        return;
    }

    // With no unscheduled head, every channel grant and the
    // bank-conflict scan (both gated on one) are no-ops, so skipping
    // arbitration is bit-identical.
    if (unscheduledSubRequests_ > 0)
        arbitrate();

    // Exactly one of busy/idle accrues per channel per cycle, so
    // channel_busy_cycles + channel_idle_cycles == numChannels x cycles
    // holds at every tick boundary (assertStatInvariant). A channel that
    // scheduled this cycle counts as busy from this cycle on.
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        if (channelBusyUntil_[static_cast<size_t>(ch)] > cycle_)
            ++*channelBusyCycles_;
        else
            ++*channelIdleCycles_;
    }

    // Retire completions in issue order per port.
    for (auto &port : ports_) {
        bool retired = false;
        while (!port->pending_.empty()) {
            const auto &head = port->pending_.front();
            if (!head.scheduled || head.completeCycle > cycle_)
                break;
            if (head.isWrite)
                port->retiredWriteBytes_ += head.bytes;
            else
                port->completedReadBytes_ += head.bytes;
            if (trace_) {
                trace_->asyncEnd(port->traceTrack_, head.traceId, cycle_,
                                 head.isWrite ? port->stateWrite_
                                              : port->stateRead_);
            }
            port->pending_.pop_front();
            --pendingSubRequests_;
            ++*progress_; // retiring is architectural progress
            retired = true;
        }
        if (retired)
            port->retireWaiters_.wakeAll();
    }
}

void
MemorySystem::arbitrate()
{
    // Each local arbiter forwards at most one sub-request per cycle;
    // each channel's global arbiter accepts at most one per cycle.
    groupUsedScratch_.assign(localArbiters_.size(), 0);
    auto &group_used = groupUsedScratch_;

    for (int ch = 0; ch < config_.numChannels; ++ch) {
        if (channelBusyUntil_[static_cast<size_t>(ch)] > cycle_)
            continue; // data bus still transferring a prior request

        // A group is eligible when one of its ports has an unscheduled
        // head sub-request destined for this channel whose bank has
        // finished its previous access phase.
        auto port_eligible = [&](size_t group, size_t slot) {
            if (group >= groupPorts_.size() ||
                slot >= groupPorts_[group].size()) {
                return false;
            }
            const MemoryPort &p = *ports_[groupPorts_[group][slot]];
            if (p.pending_.empty())
                return false;
            const auto &head = p.pending_.front();
            return !head.scheduled && head.channel == ch &&
                bankAt(ch, head.bank).busyUntil <= cycle_;
        };

        int group = globalArbiters_[static_cast<size_t>(ch)].grant(
            [&](size_t g) {
                if (group_used[g])
                    return false;
                for (size_t s = 0; s < groupPorts_[g].size(); ++s) {
                    if (port_eligible(g, s))
                        return true;
                }
                return false;
            });
        if (group < 0) {
            // Free bus with nothing schedulable: if a head was turned
            // away solely because its bank is mid-access, record the
            // bank conflict (at most once per channel per cycle).
            if (channelHasBankConflict(ch, cycle_))
                ++*bankConflictCycles_;
            continue;
        }
        group_used[static_cast<size_t>(group)] = 1;

        int slot = localArbiters_[static_cast<size_t>(group)].grant(
            [&](size_t s) {
                return port_eligible(static_cast<size_t>(group), s);
            });
        GENESIS_ASSERT(slot >= 0, "global arbiter granted empty group");

        size_t port_idx =
            groupPorts_[static_cast<size_t>(group)]
                       [static_cast<size_t>(slot)];
        auto &req = ports_[port_idx]->pending_.front();
        Bank &bank = bankAt(ch, req.bank);
        bool row_hit = bank.openRow == req.row;
        uint64_t access_latency = row_hit
            ? config_.rowHitLatencyCycles : config_.latencyCycles;
        uint64_t transfer_cycles =
            (req.bytes + config_.bytesPerCyclePerChannel - 1) /
            config_.bytesPerCyclePerChannel;
        req.scheduled = true;
        --unscheduledSubRequests_;
        req.completeCycle = cycle_ + access_latency + transfer_cycles;
        channelBusyUntil_[static_cast<size_t>(ch)] =
            cycle_ + transfer_cycles;
        bank.openRow = req.row;
        bank.busyUntil = cycle_ + access_latency;

        ++*(row_hit ? rowHits_ : rowMisses_);
        *(req.isWrite ? writeBytes_ : readBytes_) += req.bytes;
        *channelBytes_[static_cast<size_t>(ch)] += req.bytes;
        ++*progress_; // scheduling is architectural progress
        if (trace_) {
            trace_->asyncInstant(
                ports_[port_idx]->traceTrack_, req.traceId, cycle_,
                stateSchedule_,
                traceArgs("channel", static_cast<uint64_t>(ch),
                          "transfer_cycles", transfer_cycles,
                          "row_hit", row_hit ? 1 : 0));
            trace_->span(channelTracks_[static_cast<size_t>(ch)],
                         TraceSink::kStateBusy, cycle_,
                         cycle_ + transfer_cycles);
        }
    }
}

uint64_t
MemorySystem::nextEventCycle() const
{
    uint64_t next = kNoEvent;
    auto consider = [&next](uint64_t c) {
        if (c < next)
            next = c;
    };
    // Head completions: the retire loop stops at each port's head, so a
    // port's next retirement happens at its head's completeCycle. An
    // unscheduled head is an event at the first tick that could grant
    // it — its channel bus and bank must have expired. A retirement can
    // expose a new unscheduled head after the same tick's scheduling
    // phase ran, so free-resource heads are events at cycle_ + 1, not
    // covered by the expiry scans below. The bound is conservative (the
    // head may still lose arbitration at that tick), which only shortens
    // jumps.
    for (const auto &port : ports_) {
        if (port->pending_.empty())
            continue;
        const auto &head = port->pending_.front();
        if (head.scheduled) {
            consider(std::max(head.completeCycle, cycle_ + 1));
        } else {
            uint64_t grantable = std::max(
                {cycle_ + 1,
                 channelBusyUntil_[static_cast<size_t>(head.channel)],
                 bankAt(head.channel, head.bank).busyUntil});
            consider(grantable);
        }
    }
    // Busy channel buses freeing up: enables scheduling of waiting
    // sub-requests and flips the per-cycle busy/idle stat accrual.
    // Bank expiries need no scan of their own: a busy bank is only
    // observable through a blocked front head (grant eligibility and
    // the conflict-stat accrual both test port fronts exclusively), and
    // the grantable bound above already takes the head's bank expiry
    // into account.
    for (uint64_t busy_until : channelBusyUntil_) {
        if (busy_until > cycle_)
            consider(busy_until);
    }
    return next;
}

void
MemorySystem::tickQuiet(uint64_t cycles)
{
    if (cycles == 0)
        return;
    if (trace_ != nullptr) {
        // Tracing wants real per-cycle records; the plain loop provides
        // them exactly.
        for (uint64_t i = 0; i < cycles; ++i)
            tick();
        return;
    }
    if (pendingSubRequests_ == 0) {
        // Matches tick()'s empty-system early-out, n times.
        cycle_ += cycles;
        *channelIdleCycles_ +=
            static_cast<uint64_t>(config_.numChannels) * cycles;
        return;
    }
    // The caller proved (via nextEventCycle()) that no event lands in
    // (cycle_, cycle_ + cycles]: no head completes, no bus frees, no
    // bank finishes. Every per-tick accrual condition is therefore
    // constant across the span — a bus is busy for all of it or none of
    // it, likewise each bank — so evaluating each condition once at the
    // first skipped tick and crediting it `cycles` times is bit-exact.
    // Arbitration is also a no-op on arbiter state: the post-tick
    // invariant says any unscheduled head is blocked on a bus or bank
    // whose expiry would be an event, and a grant() that finds no
    // eligible requester leaves the round-robin pointer untouched.
    GENESIS_ASSERT(nextEventCycle() > cycle_ + cycles,
                   "tickQuiet span is not event-free");
    const uint64_t t = cycle_ + 1;
    uint64_t busy_channels = 0;
    uint64_t conflict_channels = 0;
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        if (channelBusyUntil_[static_cast<size_t>(ch)] > t) {
            ++busy_channels;
            continue;
        }
        if (unscheduledSubRequests_ > 0 && channelHasBankConflict(ch, t))
            ++conflict_channels;
    }
    // nextEventCycle() reports unscheduled heads at their earliest
    // grantable cycle, so a span it proved quiet can hold no head that
    // could be scheduled inside it; re-check that directly as a cheap
    // second line of defence.
    for (const auto &port : ports_) {
        if (port->pending_.empty())
            continue;
        const auto &head = port->pending_.front();
        GENESIS_ASSERT(
            head.scheduled ||
                channelBusyUntil_[static_cast<size_t>(head.channel)] > t ||
                bankAt(head.channel, head.bank).busyUntil > t,
            "tickQuiet span covers a schedulable head (issue without an "
            "intervening tick?)");
    }
    cycle_ += cycles;
    *channelBusyCycles_ += busy_channels * cycles;
    *channelIdleCycles_ +=
        (static_cast<uint64_t>(config_.numChannels) - busy_channels) *
        cycles;
    *bankConflictCycles_ += conflict_channels * cycles;
}

bool
MemorySystem::channelHasBankConflict(int ch, uint64_t at) const
{
    for (const auto &p : ports_) {
        if (p->pending_.empty())
            continue;
        const auto &head = p->pending_.front();
        if (!head.scheduled && head.channel == ch &&
            bankAt(ch, head.bank).busyUntil > at) {
            return true;
        }
    }
    return false;
}

void
MemorySystem::assertStatInvariant() const
{
    uint64_t busy = stats_.get("channel_busy_cycles");
    uint64_t idle = stats_.get("channel_idle_cycles");
    uint64_t expect =
        static_cast<uint64_t>(config_.numChannels) * cycle_;
    GENESIS_ASSERT(busy + idle == expect,
                   "channel stat drift: busy %llu + idle %llu != "
                   "%d channels x %llu cycles",
                   static_cast<unsigned long long>(busy),
                   static_cast<unsigned long long>(idle),
                   config_.numChannels,
                   static_cast<unsigned long long>(cycle_));
}

bool
MemorySystem::idle() const
{
    for (const auto &port : ports_) {
        if (!port->idle())
            return false;
    }
    return true;
}

} // namespace genesis::sim
