#include "sim/controller.h"

#include <algorithm>

#include "common/log.h"

namespace svard::sim {

namespace {
constexpr dram::Tick kInf = std::numeric_limits<dram::Tick>::max() / 4;
} // anonymous namespace

MemController::Queue::Queue(size_t capacity, uint32_t banks)
    : slot(capacity), next(capacity, kNil), prev(capacity, kNil),
      bank(banks), pending((banks + 63) / 64, 0)
{
    SVARD_ASSERT(capacity < kNil, "request queue too deep");
    for (size_t s = capacity; s-- > 0;)
        free.push_back(static_cast<uint16_t>(s));
}

MemController::MemController(const SimConfig &cfg,
                             defense::Defense *defense,
                             Completion on_complete)
    : cfg_(cfg), mapper_(cfg), defense_(defense),
      onComplete_(std::move(on_complete)), banks_(cfg.totalBanks()),
      ranks_(cfg.ranks), actReady_(cfg.ranks * cfg.bankGroups),
      actGroup_(cfg.totalBanks()),
      readQ_(cfg.readQueue, cfg.totalBanks()),
      writeQ_(cfg.writeQueue, cfg.totalBanks())
{
    for (uint32_t r = 0; r < cfg_.ranks; ++r) {
        ranks_[r].refreshDue = cfg_.timing.tREFI;
        ranks_[r].lastActBg.assign(cfg_.bankGroups, -1'000'000);
        for (uint32_t g = 0; g < cfg_.bankGroups; ++g)
            actReady_[r * cfg_.bankGroups + g] =
                rankActReady(ranks_[r], g);
    }
    for (uint32_t b = 0; b < cfg.totalBanks(); ++b)
        actGroup_[b] = rankOf(b) * cfg_.bankGroups + bankGroupOf(b);
    // Largest per-ACT burst: a defense may emit a handful of refresh,
    // migration, and metadata actions for one activation; reserve so
    // the buffer stops growing after the first few ACTs.
    actionBuf_.reserve(8);
}

bool
MemController::enqueue(const MemRequest &req)
{
    Queue &q = req.write ? writeQ_ : readQ_;
    if (q.size >= (req.write ? cfg_.writeQueue : cfg_.readQueue))
        return false;
    MemRequest r = req;
    r.flatBank = mapper_.flatBank(r.addr);
    r.seq = seq_++;
    link(q, r);
    return true;
}

void
MemController::link(Queue &q, const MemRequest &req)
{
    const uint16_t s = q.free.back();
    q.free.pop_back();
    q.slot[s] = req;
    BankList &l = q.bank[req.flatBank];
    q.next[s] = kNil;
    q.prev[s] = l.tail;
    if (l.tail == kNil)
        l.head = s;
    else
        q.next[l.tail] = s;
    l.tail = s;
    const Bank &bank = banks_[req.flatBank];
    uint16_t &head = bank.open && bank.row == req.addr.row ? l.hit
                                                           : l.miss;
    if (head == kNil)
        head = s;
    l.throttledUntil = std::max(l.throttledUntil, req.notBefore);
    q.pending[req.flatBank / 64] |= uint64_t{1} << (req.flatBank % 64);
    ++q.size;
}

void
MemController::unlink(Queue &q, uint16_t s)
{
    const uint32_t b = q.slot[s].flatBank;
    BankList &l = q.bank[b];
    const Bank &bank = banks_[b];
    // The next head of the same kind is the next such request in
    // arrival order after the one leaving.
    auto advance = [&](uint16_t &head) {
        if (head != s)
            return;
        const bool hit = bank.open && bank.row == q.slot[s].addr.row;
        head = q.next[s];
        while (head != kNil &&
               (bank.open && bank.row == q.slot[head].addr.row) != hit)
            head = q.next[head];
    };
    advance(l.hit);
    advance(l.miss);
    (q.prev[s] == kNil ? l.head : q.next[q.prev[s]]) = q.next[s];
    (q.next[s] == kNil ? l.tail : q.prev[q.next[s]]) = q.prev[s];
    if (l.head == kNil) {
        l.throttledUntil = 0;
        q.pending[b / 64] &= ~(uint64_t{1} << (b % 64));
    }
    q.free.push_back(s);
    --q.size;
}

void
MemController::reindex(uint32_t flat_bank)
{
    const Bank &bank = banks_[flat_bank];
    for (Queue *q : {&readQ_, &writeQ_}) {
        BankList &l = q->bank[flat_bank];
        l.hit = l.miss = kNil;
        for (uint16_t s = l.head;
             s != kNil && (l.hit == kNil || l.miss == kNil);
             s = q->next[s]) {
            uint16_t &head =
                bank.open && bank.row == q->slot[s].addr.row ? l.hit
                                                             : l.miss;
            if (head == kNil)
                head = s;
        }
    }
}

void
MemController::closeRow(uint32_t flat_bank)
{
    Bank &bank = banks_[flat_bank];
    bank.open = false;
    bank.hitStreak = 0;
    for (Queue *q : {&readQ_, &writeQ_}) {
        BankList &l = q->bank[flat_bank];
        l.hit = kNil;
        l.miss = l.head;
    }
}

void
MemController::doActivate(MemRequest &req)
{
    const auto &t = cfg_.timing;
    Bank &bank = banks_[req.flatBank];
    const uint32_t r = rankOf(req.flatBank);
    Rank &rank = ranks_[r];
    const uint32_t bg = bankGroupOf(req.flatBank);
    if (rank.actCount == 4 &&
        rank.oldestAct() + t.tFAW >
            std::max({bank.readyAct, rank.lastAct + t.tRRD_S,
                      rank.lastActBg[bg] + t.tRRD_L, req.arrive,
                      req.notBefore}))
        ++stats_.tfawStalls;
    bank.open = true;
    bank.row = req.addr.row;
    bank.hitStreak = 0;
    bank.readyColumn = now_ + t.tRCD;
    bank.readyPre = now_ + t.tRAS;
    rank.lastAct = now_;
    rank.lastActBg[bg] = now_;
    rank.pushAct(now_);
    for (uint32_t g = 0; g < cfg_.bankGroups; ++g)
        actReady_[r * cfg_.bankGroups + g] = rankActReady(rank, g);
    reindex(req.flatBank);
    ++stats_.activations;
    stats_.reactivations += req.activated;
    req.activated = true;
}

void
MemController::doPrecharge(uint32_t flat_bank)
{
    Bank &bank = banks_[flat_bank];
    closeRow(flat_bank);
    bank.readyAct = std::max(bank.readyAct, now_ + cfg_.timing.tRP);
}

void
MemController::applyActions(const defense::ActionBuffer &acts,
                            dram::Tick *throttle_out)
{
    using Kind = defense::PreventiveAction::Kind;
    const auto &t = cfg_.timing;
    const dram::Tick row_transfer =
        t.tRCD + static_cast<dram::Tick>(cfg_.blocksPerRow()) * t.tBL +
        t.tRP;
    const dram::Tick row_burst =
        static_cast<dram::Tick>(cfg_.blocksPerRow()) * t.tBL;
    for (const auto &a : acts) {
        // The defense emits actions in the controller's own flat bank
        // space; the shared helper asserts that instead of folding
        // mismatches away with a modulo.
        const uint32_t b =
            defense::resolveActionBank(a.bank, banks_.size());
        Bank &bank = banks_[b];
        // Row-content moves go through the memory controller, so they
        // occupy the shared channel data bus as well as the bank.
        auto occupy = [&](dram::Tick bank_dur, dram::Tick bus_dur) {
            dram::Tick base = std::max(now_, bank.readyAct);
            if (bank.open) {
                base = std::max(now_, bank.readyPre) + t.tRP;
                closeRow(b);
            }
            bank.readyAct = std::max(bank.readyAct, base + bank_dur);
            if (bus_dur > 0)
                busReady_ = std::max(busReady_, now_) + bus_dur;
        };
        switch (a.kind) {
          case Kind::RefreshRow:
            occupy(t.tRAS + t.tRP, 0);
            ++stats_.preventiveRefreshes;
            break;
          case Kind::Throttle:
            if (throttle_out)
                *throttle_out = std::max(*throttle_out, a.delay);
            stats_.throttleStall += a.delay;
            break;
          case Kind::MigrateRow:
            // One row out + one row in: two full-row bursts.
            occupy(2 * row_transfer, 2 * row_burst);
            ++stats_.migrations;
            break;
          case Kind::SwapRows:
            // A swap streams both rows through the swap buffer (two
            // reads + two writes); at swap-threshold rates each
            // swapped row is also unswapped/relocated again before
            // the epoch ends, which RRS pays as additional row
            // transfers (amortized here), making RRS roughly twice
            // AQUA's one-row migration — the paper's Fig. 12 gap.
            occupy(8 * row_transfer, 8 * row_burst);
            ++stats_.swaps;
            break;
          case Kind::MetadataAccess:
            occupy(t.tRCD + t.tCL + t.tBL + t.tRP, t.tBL);
            ++stats_.metadataAccesses;
            break;
        }
    }
}

void
MemController::refreshIfDue()
{
    // One compare covers the common case: nothing (rank refresh or
    // defense epoch) is due yet. maintenanceDue_ caches the earliest
    // due time and is refreshed whenever either source advances.
    if (now_ < maintenanceDue_)
        return;
    // Recalibration duty (drift sweeps): the policy's amortized
    // re-characterization ACTs extend every refresh stall. Zero duty
    // — the static path — adds exactly zero ticks.
    const dram::Tick recal_extra =
        cfg_.recalDuty > 0.0
            ? static_cast<dram::Tick>(cfg_.recalDuty *
                                      cfg_.timing.tREFI)
            : 0;
    for (uint32_t r = 0; r < cfg_.ranks; ++r) {
        Rank &rank = ranks_[r];
        if (now_ < rank.refreshDue)
            continue;
        const uint32_t banks_per_rank =
            cfg_.bankGroups * cfg_.banksPerGroup;
        for (uint32_t b = r * banks_per_rank;
             b < (r + 1) * banks_per_rank; ++b) {
            Bank &bank = banks_[b];
            dram::Tick base = std::max(now_, bank.readyAct);
            if (bank.open) {
                base = std::max(now_, bank.readyPre) + cfg_.timing.tRP;
                closeRow(b);
            }
            bank.readyAct = std::max(bank.readyAct,
                                     base + cfg_.timing.tRFC +
                                         recal_extra);
        }
        rank.refreshDue += cfg_.timing.tREFI;
        ++stats_.refreshes;
    }
    // Refresh-window epoch for the defense's counter structures.
    if (defense_ && now_ - epochStart_ >= cfg_.timing.tREFW) {
        defense_->onEpochEnd(now_);
        epochStart_ = now_;
    }
    maintenanceDue_ = kInf;
    for (const Rank &rank : ranks_)
        maintenanceDue_ = std::min(maintenanceDue_, rank.refreshDue);
    if (defense_)
        maintenanceDue_ = std::min(maintenanceDue_,
                                   epochStart_ + cfg_.timing.tREFW);
}

bool
MemController::updateDrainMode()
{
    // Write drain hysteresis.
    if (draining_) {
        if (writeQ_.size <= cfg_.writeQueue / 4)
            draining_ = false;
    } else {
        if (writeQ_.size >= 3 * cfg_.writeQueue / 4 ||
            (readQ_.size == 0 && writeQ_.size != 0))
            draining_ = true;
    }
    return draining_ && writeQ_.size != 0;
}

void
MemController::issueColumn(Queue &q, uint16_t s)
{
    const auto &t = cfg_.timing;
    const MemRequest r = q.slot[s];
    Bank &bank = banks_[r.flatBank];
    const dram::Tick cas = r.write ? t.tCWL : t.tCL;
    const dram::Tick data = std::max(now_ + cas, busReady_);
    busReady_ = data + t.tBL;
    bank.readyColumn = std::max(bank.readyColumn, now_ + t.tCCD_L);
    ++bank.hitStreak;
    unlink(q, s);
    if (r.write) {
        bank.readyPre = std::max(bank.readyPre, data + t.tBL + t.tWR);
        ++stats_.writes;
    } else {
        ++stats_.reads;
        if (onComplete_)
            onComplete_(r, data + t.tBL);
    }
}

bool
MemController::tryIssue(dram::Tick *wakeup)
{
    const bool drained = updateDrainMode();
    Queue &q = drained ? writeQ_ : readQ_;
    const auto &t = cfg_.timing;
    // A column may issue once the data bus frees within tCL.
    const dram::Tick bus_at = busReady_ - t.tCL;

    // FR-FCFS by arrival order: the oldest under-cap row hit that can
    // issue now, else the oldest request that can make progress.
    constexpr uint64_t kNone = UINT64_MAX;
    uint64_t hit_seq = kNone, any_seq = kNone;
    uint16_t hit_slot = kNil, any_slot = kNil;
    auto offer = [&](uint64_t &best, uint16_t &slot, uint16_t s) {
        if (q.slot[s].seq < best) {
            best = q.slot[s].seq;
            slot = s;
        }
    };
    // Earliest time a blocked request could issue, not counting row
    // hits held back only by the bus (those wait for bus_at).
    dram::Tick blocked = kInf;
    bool bus_blocked = false;

    for (size_t w = 0; w < q.pending.size(); ++w) {
        for (uint64_t bits = q.pending[w]; bits; bits &= bits - 1) {
            const uint32_t b =
                static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
            const Bank &bank = banks_[b];
            const BankList &l = q.bank[b];
            uint16_t hit = l.hit, miss = l.miss;
            if (l.throttledUntil > now_) {
                // Throttled requests wait for their release; the oldest
                // of each kind among the rest stands for the bank.
                hit = miss = kNil;
                for (uint16_t s = l.head; s != kNil; s = q.next[s]) {
                    const MemRequest &r = q.slot[s];
                    if (r.notBefore > now_) {
                        blocked = std::min(blocked, r.notBefore);
                        continue;
                    }
                    uint16_t &head =
                        bank.open && bank.row == r.addr.row ? hit : miss;
                    if (head == kNil)
                        head = s;
                }
            }
            if (hit != kNil) {
                if (bank.readyColumn <= now_ && bus_at <= now_) {
                    if (bank.hitStreak < cfg_.columnCap)
                        offer(hit_seq, hit_slot, hit);
                    else
                        offer(any_seq, any_slot, hit); // capped hit
                } else if (bus_at > bank.readyColumn) {
                    bus_blocked = true;
                } else {
                    blocked = std::min(blocked, bank.readyColumn);
                }
            }
            if (miss != kNil) {
                // Row conflict: precharge; closed bank: activate.
                const dram::Tick at =
                    bank.open ? bank.readyPre
                              : std::max(bank.readyAct,
                                         actReady_[actGroup_[b]]);
                if (at <= now_)
                    offer(any_seq, any_slot, miss);
                else
                    blocked = std::min(blocked, at);
            }
        }
    }

    if (hit_slot != kNil) {
        stats_.rowHits +=
            banks_[q.slot[hit_slot].flatBank].hitStreak > 0 ? 1 : 0;
        issueColumn(q, hit_slot);
        return true;
    }
    if (any_slot == kNil) {
        // The scheduler next runs at the earliest issue time when that
        // is a wakeup candidate itself (a bank or rank ready time or a
        // throttle release). Otherwise it runs at the first candidate
        // after: row hits held back only by the bus wait from bus_at,
        // and a defense epoch ending first is noticed at the first
        // candidate after its end. While reads are empty and writes
        // sit below the exit watermark, the drain hysteresis flips on
        // every evaluation, so then every candidate is visited.
        const bool by_bus = bus_blocked && bus_at < blocked;
        dram::Tick next = by_bus ? bus_at : blocked;
        const dram::Tick epoch_end =
            defense_ ? epochStart_ + t.tREFW : kInf;
        if (readQ_.size == 0 && writeQ_.size != 0)
            next = nextWakeup(now_ + 1);
        else if (by_bus || epoch_end < next)
            next = nextWakeup(std::min(next, epoch_end));
        // Refreshes are processed on time, whatever else waits.
        for (const Rank &rank : ranks_)
            if (rank.refreshDue > now_)
                next = std::min(next, rank.refreshDue);
        *wakeup = next;
        return false;
    }

    MemRequest &r = q.slot[any_slot];
    Bank &bank = banks_[r.flatBank];
    if (bank.open && bank.row == r.addr.row) {
        issueColumn(q, any_slot);
        return true;
    }
    if (bank.open) {
        ++stats_.rowConflicts;
        doPrecharge(r.flatBank);
        return true;
    }
    // Bank closed: activate (defense may throttle instead).
    if (defense_ && !r.defenseCleared) {
        dram::Tick throttle = 0;
        actionBuf_.clear();
        defense_->onActivate(r.flatBank, r.addr.row, now_, actionBuf_);
        applyActions(actionBuf_, &throttle);
        if (throttle > 0) {
            r.notBefore = now_ + throttle;
            BankList &l = q.bank[r.flatBank];
            l.throttledUntil = std::max(l.throttledUntil, r.notBefore);
            return true;
        }
        r.defenseCleared = true;
        if (bank.readyAct > now_) {
            // Preventive actions (victim refresh, migration, counter
            // transfer) occupy this bank first; the admitted
            // activation waits behind them and is not re-submitted
            // to the defense.
            return true;
        }
    }
    doActivate(r);
    return true;
}

dram::Tick
MemController::nextWakeup(dram::Tick from) const
{
    // Candidates: the bus, each pending bank's ready times and rank ACT
    // readiness, and throttle releases.
    dram::Tick next = kInf;
    auto consider = [&](dram::Tick c) {
        if (c >= from && c > now_ && c < next)
            next = c;
    };
    consider(busReady_);
    for (size_t w = 0; w < readQ_.pending.size(); ++w)
        for (uint64_t bits = readQ_.pending[w] | writeQ_.pending[w]; bits;
             bits &= bits - 1) {
            const uint32_t b =
                static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
            const Bank &bank = banks_[b];
            consider(bank.readyAct);
            consider(bank.readyColumn);
            consider(bank.readyPre);
            consider(actReady_[actGroup_[b]]);
            for (const Queue *q : {&readQ_, &writeQ_})
                if (q->bank[b].throttledUntil > now_)
                    for (uint16_t s = q->bank[b].head; s != kNil;
                         s = q->next[s])
                        consider(q->slot[s].notBefore);
        }
    return next;
}

dram::Tick
MemController::run(dram::Tick until)
{
    while (now_ < until) {
        refreshIfDue();
        dram::Tick next;
        if (!tryIssue(&next))
            now_ = std::min(next, until);
    }
    return now_;
}

} // namespace svard::sim
