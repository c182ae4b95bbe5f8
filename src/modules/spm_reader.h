/**
 * @file
 * SPM Reader module (Section III-C).
 *
 * Three operating modes, matching the paper:
 *  - AddressStream: each input flit carries an address; outputs the word;
 *  - Interval: two input queues supply (start, end) pairs — the Figure 7
 *    arrangement where READS.POS and READS.ENDPOS feed the reader — and
 *    all words in [start, end) stream out followed by a boundary flit;
 *  - Drain: once a designated producer module finishes, every word of the
 *    scratchpad streams out (used to dump BQSR count buffers to memory).
 *
 * A reader that waits on another module's done() sleeps on its
 * doneWaiters() list until that module finishes.
 */

#ifndef GENESIS_MODULES_SPM_READER_H
#define GENESIS_MODULES_SPM_READER_H

#include "sim/module.h"
#include "sim/spm.h"

namespace genesis::modules {

/** Operating mode of an SpmReader. */
enum class SpmReadMode {
    AddressStream,
    Interval,
    Drain,
};

/** Configuration for an SpmReader. */
struct SpmReaderConfig {
    SpmReadMode mode = SpmReadMode::Interval;
    /** Subtract this base from incoming addresses. */
    int64_t addrBase = 0;
    /**
     * When true, stored words are (low byte | high byte << 8) pairs —
     * e.g. reference base + IS_SNP bit — and the output flit carries the
     * two parts as separate fields.
     */
    bool unpackPair = false;
    /** Interval mode: emit a boundary flit after each interval. */
    bool emitBoundaries = true;
    /**
     * Do not start reading until this module reports done — models the
     * phased execution where the SPM Updater initialises the scratchpad
     * from memory before any read is processed. Each waited cycle counts
     * as stall.spm_init. A Drain reader waits on the module its
     * constructor names instead, counting no stall.
     */
    sim::Module *waitFor = nullptr;
};

/** Streams scratchpad contents into a queue. */
class SpmReader : public sim::Module
{
  public:
    /** AddressStream constructor. */
    SpmReader(std::string name, const sim::Scratchpad *spm,
              sim::HardwareQueue *addr_in, sim::HardwareQueue *out,
              const SpmReaderConfig &config);

    /** Interval constructor: start and end address queues. */
    SpmReader(std::string name, const sim::Scratchpad *spm,
              sim::HardwareQueue *start_in, sim::HardwareQueue *end_in,
              sim::HardwareQueue *out, const SpmReaderConfig &config);

    /** Drain constructor: streams [0, spm size) after wait_for is done. */
    SpmReader(std::string name, const sim::Scratchpad *spm,
              sim::Module *wait_for, sim::HardwareQueue *out,
              const SpmReaderConfig &config);

    void tick() override;
    bool done() const override;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallSpmInit_ = stallCounter("spm_init");
    StatHandle stallBackpressure_ = stallCounter("backpressure");

    void pushWord(int64_t key, int64_t word);

    const sim::Scratchpad *spm_;
    sim::HardwareQueue *startIn_ = nullptr;
    sim::HardwareQueue *endIn_ = nullptr;
    sim::HardwareQueue *out_ = nullptr;
    SpmReaderConfig config_;

    bool intervalActive_ = false;
    int64_t cursor_ = 0;
    int64_t intervalEnd_ = 0;
    bool pendingBoundary_ = false;
    bool closed_ = false;
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_SPM_READER_H
