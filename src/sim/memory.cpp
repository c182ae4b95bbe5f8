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
    // schedule queue in a cycle after its issue: only queue heads are
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
    if (pending_.size() == 1)
        owner_->addReadyHead(*this);
    ++*owner_->subRequests_;
    ++owner_->pendingSubRequests_;
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
        // gran is a power of two (validate() checks it).
        uint64_t granule_end = (cur | (gran - 1)) + 1;
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
    granDiv_ = Divisor(config_.accessGranularity);
    channelDiv_ = Divisor(static_cast<uint64_t>(config_.numChannels));
    rowDiv_ = Divisor(config_.rowBytes);
    bankDiv_ = Divisor(static_cast<uint64_t>(config_.banksPerChannel));
    busDiv_ = Divisor(config_.bytesPerCyclePerChannel);

    channelBusyUntil_.assign(static_cast<size_t>(config_.numChannels), 0);
    banks_.assign(static_cast<size_t>(config_.numChannels) *
                      static_cast<size_t>(config_.banksPerChannel),
                  Bank());
    globalArbiters_.assign(static_cast<size_t>(config_.numChannels),
                           RoundRobinArbiter());
    readyHeads_.resize(static_cast<size_t>(config_.numChannels));
    readyBankFree_.assign(static_cast<size_t>(config_.numChannels),
                          kNoEvent);
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
    uint64_t granule = granDiv_.quot(addr);
    uint64_t local = channelDiv_.quot(granule) * config_.accessGranularity +
        granDiv_.rem(addr);
    uint64_t row = rowDiv_.quot(local);
    DramLoc loc;
    loc.channel = static_cast<int>(channelDiv_.rem(granule));
    loc.bank = static_cast<int>(bankDiv_.rem(row));
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
MemorySystem::addReadyHead(MemoryPort &port)
{
    const MemoryPort::SubRequest &head = port.pending_.front();
    const size_t c = static_cast<size_t>(head.channel);
    readyHeads_[c].push_back(&port);
    const uint64_t bank_free = bankAt(head.channel, head.bank).busyUntil;
    readyBankFree_[c] = std::min(readyBankFree_[c], bank_free);
    // The head adds one event candidate, its earliest grantable cycle,
    // and changes nothing else: fold it into a fresh horizon. The
    // horizon never lies before cycle_ + 1, so a head grantable then
    // (a retirement exposing a head on a free channel) pins it there.
    const uint64_t event =
        std::max({cycle_ + 1, channelBusyUntil_[c], bank_free});
    if (horizon_.at == cycle_)
        horizon_.next = std::min(horizon_.next, event);
    else if (event == cycle_ + 1)
        horizon_ = Horizon{cycle_, event};
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
    const size_t group = static_cast<size_t>(local_group);
    if (localArbiters_.size() <= group) {
        localArbiters_.resize(group + 1);
        groupGrantedAt_.resize(group + 1, 0);
        for (auto &arb : globalArbiters_)
            arb.resize(localArbiters_.size());
    }
    // The port's slot is its index in the group's local arbiter.
    const size_t slot = localArbiters_[group].size();
    localArbiters_[group].resize(slot + 1);
    auto port = std::unique_ptr<MemoryPort>(new MemoryPort(
        id, local_group, slot, config_.portQueueDepth, this));
    port->retireWaiters_.setName("mem.port" + std::to_string(id) +
                                 " retire");
    if (trace_)
        attachPortTrace(*port);
    ports_.push_back(std::move(port));
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

    // Nothing retires before the earliest scheduled completion.
    if (cycle_ >= retireHorizon_)
        retire();
}

void
MemorySystem::retire()
{
    // Visit every port in port order, so trace asyncEnd records and
    // retire-waiter wakes come in the same order as a scan on every
    // tick. Only a head is ever granted, so each port retires at most
    // its head, and the head it exposes is unscheduled.
    uint64_t horizon = kNoEvent;
    for (auto &port : ports_) {
        Ring<MemoryPort::SubRequest> &pending = port->pending_;
        if (pending.empty() || !pending.front().scheduled)
            continue;
        const MemoryPort::SubRequest &head = pending.front();
        if (head.completeCycle > cycle_) {
            horizon = std::min(horizon, head.completeCycle);
            continue;
        }
        if (head.isWrite)
            port->retiredWriteBytes_ += head.bytes;
        else
            port->completedReadBytes_ += head.bytes;
        if (trace_) {
            trace_->asyncEnd(port->traceTrack_, head.traceId, cycle_,
                             head.isWrite ? port->stateWrite_
                                          : port->stateRead_);
        }
        pending.pop_front();
        --pendingSubRequests_;
        ++*progress_; // retiring is architectural progress
        if (!pending.empty())
            addReadyHead(*port);
        if (!port->retireWaiters_.empty())
            port->retireWaiters_.wakeAll();
    }
    retireHorizon_ = horizon;
}

void
MemorySystem::arbitrate()
{
    // Each local arbiter forwards at most one sub-request per cycle;
    // each channel's global arbiter accepts at most one per cycle.
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        const size_t c = static_cast<size_t>(ch);
        if (channelBusyUntil_[c] > cycle_)
            continue; // data bus still transferring a prior request
        std::vector<MemoryPort *> &ready = readyHeads_[c];
        if (ready.empty())
            continue; // no head to grant, none to count as a conflict

        // A ready head is eligible when its bank has finished its
        // previous access phase and its group has not won a channel
        // this cycle. The global arbiter's grant() would pick the group
        // of an eligible head that comes first in its scan, and that
        // group's local arbiter the eligible port first in its own
        // scan: the eligible head with the smallest (group distance,
        // slot distance) is exactly that winner, whatever the list
        // order.
        const RoundRobinArbiter &global = globalArbiters_[c];
        size_t winner = ready.size();
        size_t winner_group = 0;
        size_t winner_slot = 0;
        bool bank_conflict = false;
        for (size_t i = 0; i < ready.size(); ++i) {
            const MemoryPort &p = *ready[i];
            if (bankAt(ch, p.pending_.front().bank).busyUntil > cycle_) {
                bank_conflict = true;
                continue;
            }
            const size_t g = static_cast<size_t>(p.group_);
            if (groupGrantedAt_[g] == cycle_)
                continue;
            const size_t group_dist = global.distance(g);
            const size_t slot_dist = localArbiters_[g].distance(p.slot_);
            if (winner == ready.size() || group_dist < winner_group ||
                (group_dist == winner_group && slot_dist < winner_slot)) {
                winner = i;
                winner_group = group_dist;
                winner_slot = slot_dist;
            }
        }
        if (winner == ready.size()) {
            // Free bus with nothing schedulable: if a head was turned
            // away because its bank is mid-access, record the bank
            // conflict (at most once per channel per cycle).
            if (bank_conflict)
                ++*bankConflictCycles_;
            continue;
        }

        MemoryPort &port = *ready[winner];
        ready[winner] = ready.back();
        ready.pop_back();
        const size_t group = static_cast<size_t>(port.group_);
        groupGrantedAt_[group] = cycle_;
        globalArbiters_[c].take(group);
        localArbiters_[group].take(port.slot_);

        auto &req = port.pending_.front();
        Bank &bank = bankAt(ch, req.bank);
        bool row_hit = bank.openRow == req.row;
        uint64_t access_latency = row_hit
            ? config_.rowHitLatencyCycles : config_.latencyCycles;
        uint64_t transfer_cycles =
            busDiv_.quot(static_cast<uint64_t>(req.bytes) +
                         config_.bytesPerCyclePerChannel - 1);
        req.scheduled = true;
        req.completeCycle = cycle_ + access_latency + transfer_cycles;
        retireHorizon_ = std::min(retireHorizon_, req.completeCycle);
        channelBusyUntil_[c] = cycle_ + transfer_cycles;
        bank.openRow = req.row;
        bank.busyUntil = cycle_ + access_latency;
        // The grant moved one of this channel's banks and delisted a
        // head: recompute the list's earliest bank expiry.
        uint64_t bank_free = kNoEvent;
        for (const MemoryPort *p : ready) {
            bank_free = std::min(
                bank_free, bankAt(ch, p->pending_.front().bank).busyUntil);
        }
        readyBankFree_[c] = bank_free;

        ++*(row_hit ? rowHits_ : rowMisses_);
        *(req.isWrite ? writeBytes_ : readBytes_) += req.bytes;
        *channelBytes_[c] += req.bytes;
        ++*progress_; // scheduling is architectural progress
        if (trace_) {
            trace_->asyncInstant(
                port.traceTrack_, req.traceId, cycle_, stateSchedule_,
                traceArgs("channel", static_cast<uint64_t>(ch),
                          "transfer_cycles", transfer_cycles,
                          "row_hit", row_hit ? 1 : 0));
            trace_->span(channelTracks_[c], TraceSink::kStateBusy, cycle_,
                         cycle_ + transfer_cycles);
        }
    }
}

const MemorySystem::Horizon &
MemorySystem::computeHorizon() const
{
    Horizon &h = horizon_;
    h.at = cycle_;
    // Nothing in flight: every bus is free too (see tick()).
    if (pendingSubRequests_ == 0) {
        h.next = kNoEvent;
        return h;
    }
    // Scheduled heads: the earliest completion is the retire horizon
    // (kNoEvent when none is scheduled).
    const uint64_t t = cycle_ + 1;
    uint64_t next = std::max(retireHorizon_, t);
    for (size_t c = 0; c < readyHeads_.size(); ++c) {
        const uint64_t busy_until = channelBusyUntil_[c];
        // A busy bus freeing up: enables scheduling of waiting
        // sub-requests and flips the per-cycle busy/idle stat accrual.
        if (busy_until > cycle_)
            next = std::min(next, busy_until);
        // Ready heads (the index): an event at the first tick that
        // could grant one — its channel bus and bank must have expired.
        // A retirement can expose a new unscheduled head after the same
        // tick's scheduling phase ran, so free-resource heads are events
        // at cycle_ + 1, not covered by the bus expiry. The bound is
        // conservative (the head may still lose arbitration at that
        // tick), which only shortens jumps. The earliest listed bank
        // expiry gives the earliest head; an empty list's kNoEvent drops
        // out. Bank expiries need no scan of their own: a busy bank is
        // only observable through a blocked ready head (grant
        // eligibility and the conflict-stat accrual both test ready
        // heads exclusively), and this bound already takes the head's
        // bank expiry into account.
        next = std::min(next, std::max({t, busy_until, readyBankFree_[c]}));
    }
    h.next = next;
    return h;
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
    // whose expiry would be an event, and a channel that grants nothing
    // leaves the round-robin pointers untouched.
    GENESIS_ASSERT(nextEventCycle() > cycle_ + cycles,
                   "tickQuiet span is not event-free");
    const uint64_t t = cycle_ + 1;
    // nextEventCycle() reports unscheduled heads at their earliest
    // grantable cycle, so a span it proved quiet can hold no head that
    // could be scheduled inside it; re-check that directly, port by
    // port and independently of the ready index, as a cheap second
    // line of defence.
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
    uint64_t busy_channels = 0;
    uint64_t conflict_channels = 0;
    for (size_t c = 0; c < readyHeads_.size(); ++c) {
        const bool bus_busy = channelBusyUntil_[c] > t;
        busy_channels += bus_busy;
        // A free bus turning away a bank-blocked head counts a bank
        // conflict, as in arbitrate(). The check above leaves every
        // listed head on a free bus blocked by its bank, so any listed
        // head makes one.
        conflict_channels += !bus_busy & !readyHeads_[c].empty();
    }
    cycle_ += cycles;
    *channelBusyCycles_ += busy_channels * cycles;
    *channelIdleCycles_ +=
        (static_cast<uint64_t>(config_.numChannels) - busy_channels) *
        cycles;
    *bankConflictCycles_ += conflict_channels * cycles;
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
    return pendingSubRequests_ == 0;
}

} // namespace genesis::sim
