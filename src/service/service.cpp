#include "service/service.h"

#include <algorithm>
#include <chrono>

#include "base/env.h"
#include "base/logging.h"
#include "base/timer.h"

namespace genesis::service {

ServiceConfig
ServiceConfig::fromEnv(ServiceConfig base)
{
    // Every knob is a positive integer; malformed or non-positive
    // values warn and keep the base value (base/env.h strict parse).
    base.numBoards = static_cast<int>(
        envInt64("GENESIS_SERVICE_BOARDS", base.numBoards, 1));
    base.slotsPerBoard = static_cast<int>(
        envInt64("GENESIS_SERVICE_SLOTS", base.slotsPerBoard, 1));
    base.queueCapacity = static_cast<size_t>(envInt64(
        "GENESIS_SERVICE_QUEUE_CAP",
        static_cast<long long>(base.queueCapacity), 1));
    if (envFlag("GENESIS_SERVICE_NO_CACHE"))
        base.enableCache = false;
    base.deviceCapacityBytes = static_cast<uint64_t>(envInt64(
        "GENESIS_SERVICE_DEVICE_MB",
        static_cast<long long>(base.deviceCapacityBytes >> 20), 1))
        << 20;
    base.cacheCapacityBytes = static_cast<uint64_t>(envInt64(
        "GENESIS_SERVICE_CACHE_MB",
        static_cast<long long>(base.cacheCapacityBytes >> 20), 1))
        << 20;
    return base;
}

ServiceConfig
ServiceConfig::fromEnv()
{
    return fromEnv(ServiceConfig());
}

// --- JobContext -----------------------------------------------------------

modules::ColumnBuffer *
JobContext::input(const std::string &key, std::vector<int64_t> elements,
                  std::vector<uint32_t> row_lengths,
                  uint32_t elem_size_bytes)
{
    if (key.empty() || !cacheEnabled_) {
        // Per-job upload: scoped so concurrent jobs never collide,
        // released when the job retires.
        std::string name = scope_;
        name += key.empty() ? "in" + std::to_string(jobBuffers_.size())
                            : key;
        modules::ColumnBuffer *buffer = session_->configureMem(
            name, std::move(elements), std::move(row_lengths),
            elem_size_bytes);
        jobBuffers_.push_back(std::move(name));
        return buffer;
    }
    runtime::DeviceMemory::CachedColumn cached =
        session_->configureMemCached(key, std::move(elements),
                                     std::move(row_lengths),
                                     elem_size_bytes);
    pinnedKeys_.push_back(key);
    if (cached.hit)
        ++cacheHits_;
    else
        ++cacheMisses_;
    return cached.buffer;
}

modules::ColumnBuffer *
JobContext::output(const std::string &name, uint32_t elem_size_bytes)
{
    std::string scoped = scope_ + name;
    modules::ColumnBuffer *buffer =
        session_->configureOutput(scoped, elem_size_bytes);
    jobBuffers_.push_back(scoped);
    outputs_.emplace_back(name, std::move(scoped));
    return buffer;
}

// --- AcceleratorService ---------------------------------------------------

AcceleratorService::AcceleratorService(const ServiceConfig &config)
    : config_(config)
{
    if (config_.numBoards < 1 || config_.slotsPerBoard < 1)
        fatal("service needs at least one board and one slot");
    if (config_.queueCapacity < 1)
        fatal("service queue capacity must be at least 1");
    boards_.resize(static_cast<size_t>(config_.numBoards));
    for (auto &board : boards_) {
        board.memory = std::make_unique<runtime::DeviceMemory>(
            config_.deviceCapacityBytes);
        if (config_.cacheCapacityBytes > 0)
            board.memory->setCacheCapacity(config_.cacheCapacityBytes);
    }
    for (int b = 0; b < config_.numBoards; ++b) {
        for (int s = 0; s < config_.slotsPerBoard; ++s)
            workers_.emplace_back(
                [this, b, s] { workerLoop(b, s); });
    }
}

AcceleratorService::~AcceleratorService()
{
    stop();
}

void
AcceleratorService::setTenantWeight(const std::string &tenant,
                                    double weight)
{
    if (weight <= 0)
        fatal("tenant weight must be positive");
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    tenants_[tenant].weight = weight;
}

Admission
AcceleratorService::submit(JobRequest request)
{
    if (!request.build)
        fatal("job has no build function");
    Admission admission;
    std::lock_guard<std::mutex> queue_lock(queueMutex_);
    if (stopping_) {
        admission.reason = "service stopped";
        std::lock_guard<std::mutex> ledger_lock(ledgerMutex_);
        ++rejected_;
        ++tenants_[request.tenant].ledger.rejected;
        return admission;
    }
    if (queue_.size() >= config_.queueCapacity) {
        admission.reason = strfmt("queue full (capacity %zu)",
                                  config_.queueCapacity);
        std::lock_guard<std::mutex> ledger_lock(ledgerMutex_);
        ++rejected_;
        ++tenants_[request.tenant].ledger.rejected;
        return admission;
    }

    PendingJob job;
    job.seq = nextSeq_++;
    job.admitted = std::chrono::steady_clock::now();
    job.promise = std::make_shared<std::promise<JobResult>>();
    admission.accepted = true;
    admission.result = job.promise->get_future().share();
    {
        // Start-time fair queueing: the job starts at the later of the
        // fleet's virtual time and the tenant's last virtual finish,
        // and pushes the tenant's finish out by cost / weight.
        std::lock_guard<std::mutex> ledger_lock(ledgerMutex_);
        TenantState &tenant = tenants_[request.tenant];
        ++tenant.ledger.submitted;
        job.vtime = std::max(globalVtime_, tenant.lastFinish);
        tenant.lastFinish =
            job.vtime +
            std::max(request.costHint, 1e-9) / tenant.weight;
    }
    job.request = std::move(request);
    queue_.push_back(std::move(job));
    queueCv_.notify_one();
    return admission;
}

AcceleratorService::PendingJob
AcceleratorService::takeNextLocked()
{
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
        if (it->request.priority != best->request.priority) {
            if (it->request.priority > best->request.priority)
                best = it;
            continue;
        }
        if (config_.policy == SchedPolicy::WeightedFair) {
            if (it->vtime < best->vtime ||
                (it->vtime == best->vtime && it->seq < best->seq))
                best = it;
        } else if (it->seq < best->seq) {
            best = it;
        }
    }
    PendingJob job = std::move(*best);
    queue_.erase(best);
    globalVtime_ = std::max(globalVtime_, job.vtime);
    return job;
}

void
AcceleratorService::workerLoop(int board, int slot)
{
    for (;;) {
        PendingJob job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            job = takeNextLocked();
            ++busySlots_;
        }
        JobResult result = runJob(job, board, slot);
        // Ledger before promise so a client that observes its own
        // completion also observes its usage.
        {
            std::lock_guard<std::mutex> lock(ledgerMutex_);
            TenantState &tenant = tenants_[job.request.tenant];
            if (result.ok)
                ++tenant.ledger.completed;
            else
                ++tenant.ledger.failed;
            tenant.ledger.accelSeconds += result.timing.accelSeconds;
            tenant.ledger.dmaSeconds += result.timing.dmaSeconds;
            tenant.ledger.dollars = cost::runCost(
                tenant.ledger.accelSeconds, config_.billing);
            tenant.ledger.cacheHits += result.cacheHits;
            tenant.ledger.cacheMisses += result.cacheMisses;
            fleetAccelSeconds_ += result.timing.accelSeconds;
        }
        job.promise->set_value(std::move(result));
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            --busySlots_;
        }
        idleCv_.notify_all();
    }
}

JobResult
AcceleratorService::runJob(PendingJob &job, int board, int slot)
{
    JobResult result;
    result.queueSeconds = secondsSince(job.admitted);
    const auto dispatch = std::chrono::steady_clock::now();
    result.board = board;
    result.slot = slot;

    runtime::DeviceMemory *memory =
        boards_[static_cast<size_t>(board)].memory.get();
    runtime::AcceleratorSession session(config_.runtime, memory);
    JobContext ctx(&session, memory,
                   "j" + std::to_string(job.seq) + ".",
                   config_.enableCache, board, slot);
    try {
        job.request.build(ctx);
        session.start();
        session.wait();
        for (const auto &[unscoped, scoped] : ctx.outputs_) {
            const modules::ColumnBuffer *flushed =
                session.flush(scoped);
            JobOutput out;
            out.name = unscoped;
            out.elements = flushed->elements;
            out.rowLengths = flushed->rowLengths;
            result.outputs.push_back(std::move(out));
        }
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
        session.wait();
        result.outputs.clear();
    }
    // Retire the job's footprint: cached inputs stay resident (just
    // unpinned, eligible for LRU eviction); per-job buffers go back to
    // the board's free list.
    for (const std::string &key : ctx.pinnedKeys_)
        memory->unpin(key);
    for (const std::string &name : ctx.jobBuffers_)
        memory->release(name);

    result.cycles = session.sim().cycle();
    result.timing = session.timing();
    result.cacheHits = ctx.cacheHits_;
    result.cacheMisses = ctx.cacheMisses_;
    result.serviceSeconds = secondsSince(dispatch);
    result.dollars =
        cost::runCost(result.timing.accelSeconds, config_.billing);
    return result;
}

void
AcceleratorService::drain()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    idleCv_.wait(lock, [this] {
        return queue_.empty() && busySlots_ == 0;
    });
}

void
AcceleratorService::stop()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

std::vector<TenantUsage>
AcceleratorService::usage() const
{
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    std::vector<TenantUsage> out;
    out.reserve(tenants_.size());
    for (const auto &[name, state] : tenants_) {
        TenantUsage usage = state.ledger;
        usage.tenant = name;
        usage.weight = state.weight;
        out.push_back(std::move(usage));
    }
    return out;
}

double
AcceleratorService::fleetAccelSeconds() const
{
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    return fleetAccelSeconds_;
}

double
AcceleratorService::fleetDollars() const
{
    return cost::runCost(fleetAccelSeconds(), config_.billing);
}

runtime::DeviceMemory::CacheStats
AcceleratorService::cacheStats() const
{
    runtime::DeviceMemory::CacheStats total;
    for (const auto &board : boards_) {
        runtime::DeviceMemory::CacheStats stats =
            board.memory->cacheStats();
        total.hits += stats.hits;
        total.misses += stats.misses;
        total.evictions += stats.evictions;
    }
    return total;
}

size_t
AcceleratorService::rejectedJobs() const
{
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    return rejected_;
}

} // namespace genesis::service
