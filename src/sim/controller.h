/**
 * @file
 * Cycle-accurate-enough DDR4 memory controller: FR-FCFS scheduling
 * with a column-access cap, open-row policy, bank/rank timing (tRCD,
 * tRP, tRAS, tCCD, tRRD, tFAW, refresh), a shared data bus, write
 * draining, and the defense hook that turns preventive actions into
 * DRAM traffic (victim refreshes, throttling stalls, migration/swap
 * bandwidth, metadata transfers).
 *
 * The scheduler works on a per-bank index instead of walking every
 * queued request. Each queue links its requests per flat bank in
 * arrival order and keeps, per bank, the oldest request to the open
 * row, the oldest request to any other row, and the latest throttle
 * release; a bitmask marks the banks with queued work. The index is
 * updated as requests arrive and leave, as rows open and close, and
 * on refresh, preventive actions and throttling. One scheduler pass
 * visits each bank of the chosen queue once and finds the FR-FCFS
 * winner by arrival order across banks; a bank whose throttle has not
 * expired is walked request by request for that pass. When nothing
 * can issue, the pass yields the earliest issue time, which is the
 * next scheduler iteration unless it is the bus lookahead, the
 * defense epoch ends first, or the drain hysteresis oscillates; only
 * then does nextWakeup scan the ready times of every bank with work.
 * The inner loop is allocation-free: requests live in fixed slots,
 * defense actions land in a reusable ActionBuffer, and the tFAW
 * history is a 4-slot ring.
 */
#ifndef SVARD_SIM_CONTROLLER_H
#define SVARD_SIM_CONTROLLER_H

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "defense/defense.h"
#include "sim/addrmap.h"
#include "sim/config.h"

namespace svard::sim {

/** A memory request inside the controller. */
struct MemRequest
{
    uint32_t core = 0;
    bool write = false;
    dram::Address addr;
    uint32_t flatBank = 0;
    dram::Tick arrive = 0;      ///< time it entered the queue
    dram::Tick notBefore = 0;   ///< throttle release time
    uint64_t token = 0;         ///< caller-assigned id
    uint64_t seq = 0;           ///< arrival order, set by enqueue
    /** The defense already observed (and admitted) this activation;
     *  it must not be consulted again when the ACT finally issues
     *  behind the preventive actions it triggered. */
    bool defenseCleared = false;
    /** Set when an ACT is issued for this request. Another ACT for it
     *  re-opens a row that closed before its column access. */
    bool activated = false;
};

/** Controller statistics. */
struct ControllerStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t activations = 0;
    uint64_t rowHits = 0;
    uint64_t rowConflicts = 0;
    uint64_t refreshes = 0;
    uint64_t preventiveRefreshes = 0;
    uint64_t migrations = 0;
    uint64_t swaps = 0;
    uint64_t metadataAccesses = 0;
    dram::Tick throttleStall = 0;
    /** ACTs whose tFAW bound was later than every other bound on them
     *  (bank readiness, tRRD, arrival, throttle release). */
    uint64_t tfawStalls = 0;
    /** ACTs re-opening a row for a request that was activated before.
     *  A defended request is cleared at its first ACT, so these reach
     *  the DRAM without a defense onActivate call. */
    uint64_t reactivations = 0;
};

/**
 * Single-channel DDR4 controller. Drive it by enqueueing requests and
 * calling run(until); completed reads are reported through the
 * completion callback (writes complete at enqueue for the cores, but
 * still consume DRAM bandwidth).
 */
class MemController
{
  public:
    using Completion =
        std::function<void(const MemRequest &, dram::Tick)>;

    MemController(const SimConfig &cfg, defense::Defense *defense,
                  Completion on_complete);

    /** Enqueue a request; returns false if the queue is full. */
    bool enqueue(const MemRequest &req);

    bool
    readQueueFull() const
    {
        return readQ_.size >= cfg_.readQueue;
    }

    bool
    writeQueueFull() const
    {
        return writeQ_.size >= cfg_.writeQueue;
    }

    /**
     * Advance the controller until `until` or until all queued work
     * is drained, whichever is earlier. Returns the controller clock.
     */
    dram::Tick run(dram::Tick until);

    bool
    idle() const
    {
        return readQ_.size == 0 && writeQ_.size == 0;
    }

    dram::Tick now() const { return now_; }
    const ControllerStats &stats() const { return stats_; }
    const MopMapper &mapper() const { return mapper_; }

  private:
    struct Bank
    {
        bool open = false;
        uint32_t row = 0;
        uint32_t hitStreak = 0;
        dram::Tick readyAct = 0;    ///< earliest next ACT
        dram::Tick readyColumn = 0; ///< earliest next RD/WR
        dram::Tick readyPre = 0;    ///< earliest next PRE
    };

    struct Rank
    {
        /** Last 4 ACT times (tFAW window), fixed 4-slot ring. */
        std::array<dram::Tick, 4> actRing{};
        uint32_t actHead = 0;  ///< oldest entry once the ring is full
        uint32_t actCount = 0;
        dram::Tick lastAct = -1'000'000; ///< tRRD_S reference
        /** Last ACT time per bank group (tRRD_L reference; sized to
         *  cfg.bankGroups, so DDR5's 8 groups and HBM2's 4 are both
         *  exact instead of assuming the DDR4 Table 4 shape). */
        std::vector<dram::Tick> lastActBg;
        dram::Tick refreshDue = 0;

        dram::Tick oldestAct() const { return actRing[actHead]; }

        void
        pushAct(dram::Tick t)
        {
            if (actCount < 4) {
                actRing[(actHead + actCount) & 3] = t;
                ++actCount;
            } else {
                actRing[actHead] = t;
                actHead = (actHead + 1) & 3;
            }
        }
    };

    static constexpr uint16_t kNil = 0xffff;

    /** A queue's requests of one flat bank, in arrival order. */
    struct BankList
    {
        uint16_t head = kNil;
        uint16_t tail = kNil;
        uint16_t hit = kNil;  ///< oldest request to the open row
        uint16_t miss = kNil; ///< oldest request to any other row
        /** Latest throttle release among the bank's requests; while
         *  it lies ahead, hit/miss may name a request that must wait,
         *  so the pass walks the list instead. */
        dram::Tick throttledUntil = 0;
    };

    /** One request queue (reads or writes): fixed slots, linked per
     *  bank, and a bitmask of the banks with queued requests. */
    struct Queue
    {
        std::vector<MemRequest> slot;
        std::vector<uint16_t> next; ///< per slot: next in its bank
        std::vector<uint16_t> prev;
        std::vector<uint16_t> free; ///< unused slots (a stack)
        std::vector<BankList> bank;
        std::vector<uint64_t> pending;
        uint32_t size = 0;

        Queue(size_t capacity, uint32_t banks);
    };

    /** Try to issue the best request at `now_`; returns true if one
     *  was serviced (or partially progressed). Otherwise nothing can
     *  issue before `*wakeup`, the exact time of the next iteration. */
    bool tryIssue(dram::Tick *wakeup);

    /** First wakeup candidate after now_ and at or after `from`: the
     *  ready times of every bank with queued work, their ranks' ACT
     *  readiness, throttle releases, and the bus. */
    dram::Tick nextWakeup(dram::Tick from) const;

    /** Write-drain hysteresis tick; returns whether writes drain.
     *  The hysteresis is sequence-stateful, so it must be evaluated
     *  exactly once per scheduler iteration (tryIssue does it). */
    bool updateDrainMode();

    /** Append a request to its bank's list. */
    void link(Queue &q, const MemRequest &req);

    /** Remove slot `s` from its bank's list and free it. */
    void unlink(Queue &q, uint16_t s);

    /** Recompute both queues' hit/miss heads of a bank after its
     *  open row changed. */
    void reindex(uint32_t flat_bank);

    /** Close a bank's row (all its requests become misses). */
    void closeRow(uint32_t flat_bank);

    /** Issue an ACT for `req` (timing, tFAW accounting). */
    void doActivate(MemRequest &req);

    void doPrecharge(uint32_t flat_bank);

    /** Issue the column access of slot `s` and retire the request. */
    void issueColumn(Queue &q, uint16_t s);

    /** Execute defense actions produced by an ACT. */
    void applyActions(const defense::ActionBuffer &acts,
                      dram::Tick *throttle_out);

    void refreshIfDue();

    uint32_t rankOf(uint32_t flat_bank) const
    {
        return flat_bank / (cfg_.bankGroups * cfg_.banksPerGroup);
    }

    /** Bank group of a flat bank within its rank (tRRD_L/tCCD_L). */
    uint32_t bankGroupOf(uint32_t flat_bank) const
    {
        return (flat_bank % (cfg_.bankGroups * cfg_.banksPerGroup)) /
               cfg_.banksPerGroup;
    }

    /** Earliest next ACT a rank's tRRD/tFAW state allows for a bank
     *  of bank group `bg`; cached per rank and group in actReady_. */
    dram::Tick
    rankActReady(const Rank &rank, uint32_t bg) const
    {
        dram::Tick e = rank.lastAct + cfg_.timing.tRRD_S;
        e = std::max(e, rank.lastActBg[bg] + cfg_.timing.tRRD_L);
        if (rank.actCount == 4)
            e = std::max(e, rank.oldestAct() + cfg_.timing.tFAW);
        return e;
    }

    const SimConfig &cfg_;
    MopMapper mapper_;
    defense::Defense *defense_; ///< may be null (baseline)
    Completion onComplete_;

    dram::Tick now_ = 0;
    dram::Tick busReady_ = 0;
    dram::Tick epochStart_ = 0;
    /** Earliest rank refresh or defense-epoch due time; refreshIfDue
     *  is a single compare until then. 0 forces the first pass to
     *  compute it. */
    dram::Tick maintenanceDue_ = 0;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    /** rankActReady per (rank, bank group), refreshed on every ACT,
     *  and each flat bank's index into it. */
    std::vector<dram::Tick> actReady_;
    std::vector<uint32_t> actGroup_;
    Queue readQ_;
    Queue writeQ_;
    uint64_t seq_ = 0;
    bool draining_ = false;

    /** Reused per-ACT action buffer: cleared, never reallocated, so
     *  the defense hook performs no per-activation heap allocation. */
    defense::ActionBuffer actionBuf_;

    ControllerStats stats_;
};

} // namespace svard::sim

#endif // SVARD_SIM_CONTROLLER_H
