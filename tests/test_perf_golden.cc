/**
 * @file
 * Golden-stats safety net for the hot-path rewrites (flat counter
 * tables, allocation-free activate path, event-driven controller
 * scheduling): every cell of a seeded defense x provider x mix grid
 * must produce *bit-identical* SimStats (ControllerStats + per-core
 * IPC + end time) and DefenseStats to the recorded values (captured
 * with SVARD_DUMP_GOLDEN=1); any scheduling or counting change —
 * however small — moves at least one fingerprint.
 *
 * Re-pinned for PR 5 after two deliberate timing-model fixes: (a)
 * SimConfig::cpuTick rounds to nearest instead of truncating,
 * removing the systematic downward bias of every non-integer tick
 * (the exact-half 3.2 GHz case moves from 312 to 313 ps — same 0.5 ps
 * error magnitude, but consistent with round-to-nearest everywhere
 * else), and (b) the controller enforces
 * tRRD_L between same-bank-group activations (it used tRRD_S for
 * every ACT-ACT pair, under-constraining same-group ACTs on every
 * standard). The pre/post equality structure across defenses was
 * verified unchanged when re-pinning.
 *
 * Also hosts the allocation-counting test backing the "zero heap
 * allocations per activation" invariant of MemController::tryIssue
 * and the defenses' onActivate hot paths.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/svard.h"
#include "core/vuln_profile.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"
#include "fault/vuln_model.h"
#include "sim/controller.h"
#include "sim/presets.h"
#include "sim/system.h"
#include "sim/workload.h"

// ------------------------------------------------------------------
// Global allocation counter (used by the zero-allocation tests).
// Counting is toggled so gtest bookkeeping does not pollute counts.
// ------------------------------------------------------------------
static std::atomic<uint64_t> g_heapAllocs{0};
static std::atomic<bool> g_countAllocs{false};

void *
operator new(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace svard;

constexpr size_t kReqs = 1500;
constexpr uint64_t kSeed = 11;
constexpr double kThreshold = 512.0;
/** Lower than kThreshold so every preset cell's hammer fires its
 *  defense's preventive actions. */
constexpr double kPresetThreshold = 128.0;

/** Fold every stat that the byte-identity guarantee covers into one
 *  64-bit fingerprint (doubles mixed by bit pattern — exact). */
uint64_t
statsFingerprint(const sim::RunResult &r)
{
    HashStream h;
    h.mix(r.endTime);
    h.mix(r.ipc.size());
    for (double ipc : r.ipc)
        h.mix(ipc);
    const sim::ControllerStats &c = r.controller;
    h.mix(c.reads).mix(c.writes).mix(c.activations).mix(c.rowHits);
    h.mix(c.rowConflicts).mix(c.refreshes).mix(c.preventiveRefreshes);
    h.mix(c.migrations).mix(c.swaps).mix(c.metadataAccesses);
    h.mix(c.throttleStall);
    const defense::DefenseStats &d = r.defense;
    h.mix(d.activationsObserved).mix(d.preventiveRefreshes);
    h.mix(d.throttleEvents).mix(d.throttleDelayTotal);
    h.mix(d.migrations).mix(d.swaps).mix(d.metadataAccesses);
    return h.value();
}

std::string
describeStats(const sim::RunResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "end=%lld reads=%llu writes=%llu acts=%llu hits=%llu "
        "conf=%llu ref=%llu pref=%llu mig=%llu swap=%llu meta=%llu "
        "stall=%lld | d.acts=%llu d.pref=%llu d.thr=%llu d.delay=%lld "
        "d.mig=%llu d.swap=%llu d.meta=%llu ipc0=%.17g",
        static_cast<long long>(r.endTime),
        static_cast<unsigned long long>(r.controller.reads),
        static_cast<unsigned long long>(r.controller.writes),
        static_cast<unsigned long long>(r.controller.activations),
        static_cast<unsigned long long>(r.controller.rowHits),
        static_cast<unsigned long long>(r.controller.rowConflicts),
        static_cast<unsigned long long>(r.controller.refreshes),
        static_cast<unsigned long long>(
            r.controller.preventiveRefreshes),
        static_cast<unsigned long long>(r.controller.migrations),
        static_cast<unsigned long long>(r.controller.swaps),
        static_cast<unsigned long long>(r.controller.metadataAccesses),
        static_cast<long long>(r.controller.throttleStall),
        static_cast<unsigned long long>(r.defense.activationsObserved),
        static_cast<unsigned long long>(r.defense.preventiveRefreshes),
        static_cast<unsigned long long>(r.defense.throttleEvents),
        static_cast<long long>(r.defense.throttleDelayTotal),
        static_cast<unsigned long long>(r.defense.migrations),
        static_cast<unsigned long long>(r.defense.swaps),
        static_cast<unsigned long long>(r.defense.metadataAccesses),
        r.ipc.empty() ? 0.0 : r.ipc[0]);
    return buf;
}

/** Workload of one golden cell. kMix* are benign seeded mixes; the
 *  kAdv* traces hammer rows hard enough to trigger every defense's
 *  preventive actions (refreshes, throttles, migrations, swaps,
 *  metadata traffic), so the goldens cover the action paths too. */
enum TraceKind : uint32_t
{
    kMix0 = 0,
    kMix1 = 1,
    kAdvRrs = 2,
    kAdvHydra = 3,
};

struct GoldenCell
{
    const char *defense;
    const char *provider; ///< "uniform" or "svard"
    uint32_t channels;
    uint32_t trace;       ///< TraceKind
    uint64_t fingerprint; ///< statsFingerprint of the run
};

/**
 * The grid: every defense mechanism x {uniform, Svärd-S0} x {2 seeded
 * benign mixes, 1 adversarial hammer trace} on the paper system, plus
 * one 2-channel Hydra cell covering the multi-channel engine.
 * Fingerprints recorded pre-rewrite.
 */
const GoldenCell kGolden[] = {
    // clang-format off
    {"para", "uniform", 1, 0, 0x9747993c7133a111ULL},
    {"para", "uniform", 1, 1, 0x4132c775e97904bdULL},
    {"para", "uniform", 1, 2, 0x3c7d07e26589b3bbULL},
    {"para", "svard", 1, 0, 0xdf10534468be6cdaULL},
    {"para", "svard", 1, 1, 0x56589e7419425b3bULL},
    {"para", "svard", 1, 2, 0x39c72b38acd49f9cULL},
    {"blockhammer", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"blockhammer", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"blockhammer", "uniform", 1, 2, 0xeed9ec910702c4cfULL},
    {"blockhammer", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"blockhammer", "svard", 1, 1, 0x77990fb350958deaULL},
    {"blockhammer", "svard", 1, 2, 0xeed9ec910702c4cfULL},
    {"hydra", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"hydra", "uniform", 1, 1, 0x6a5b8bea14622e55ULL},
    {"hydra", "uniform", 1, 2, 0x81fdf15cd2670758ULL},
    {"hydra", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"hydra", "svard", 1, 1, 0x6a5b8bea14622e55ULL},
    {"hydra", "svard", 1, 2, 0x81fdf15cd2670758ULL},
    {"aqua", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"aqua", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"aqua", "uniform", 1, 2, 0x410e5d09e6128a92ULL},
    {"aqua", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"aqua", "svard", 1, 1, 0x77990fb350958deaULL},
    {"aqua", "svard", 1, 2, 0x410e5d09e6128a92ULL},
    {"rrs", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"rrs", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"rrs", "uniform", 1, 2, 0xcab70a0aee47a232ULL},
    {"rrs", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"rrs", "svard", 1, 1, 0x77990fb350958deaULL},
    {"rrs", "svard", 1, 2, 0xcab70a0aee47a232ULL},
    {"graphene", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"graphene", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"graphene", "uniform", 1, 2, 0x923f2378e5d9f67aULL},
    {"graphene", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"graphene", "svard", 1, 1, 0x77990fb350958deaULL},
    {"graphene", "svard", 1, 2, 0x923f2378e5d9f67aULL},
    {"hydra", "svard", 1, 3, 0x0f791e2510bc8d7bULL},
    {"hydra", "svard", 2, 0, 0x0e81af4db3eec19dULL},
    // clang-format on
};

/** A golden cell on a non-Table-4 geometry preset. */
struct PresetGoldenCell
{
    const char *preset;
    const char *defense;
    uint32_t trace;       ///< TraceKind (kMix0, kAdvRrs or kAdvHydra)
    uint64_t fingerprint; ///< statsFingerprint of the run
};

/**
 * The DDR5 (64 banks per channel over two ranks) and HBM2 (16
 * channels of 16 banks) presets x {benign mix, RRS hammer, Hydra
 * thrash} x {blockhammer (throttles), rrs (swaps), hydra (counter
 * traffic)}, uniform thresholds. The hammer traces are generated for
 * the preset's own row stride. Recorded with SVARD_DUMP_GOLDEN=1 on
 * the per-request scan scheduler, before the per-bank index replaced
 * it.
 */
const PresetGoldenCell kPresetGolden[] = {
    // clang-format off
    {"ddr5-4800-32bank", "blockhammer", 0, 0x61dae76b6904a9efULL},
    {"ddr5-4800-32bank", "rrs", 0, 0x61dae76b6904a9efULL},
    {"ddr5-4800-32bank", "hydra", 0, 0x61dae76b6904a9efULL},
    {"ddr5-4800-32bank", "blockhammer", 2, 0xb796a59603b311d7ULL},
    {"ddr5-4800-32bank", "rrs", 2, 0xb011dfb36e497d11ULL},
    {"ddr5-4800-32bank", "hydra", 2, 0x92967c3b64399f98ULL},
    {"ddr5-4800-32bank", "blockhammer", 3, 0xb24eac9dd81d7136ULL},
    {"ddr5-4800-32bank", "rrs", 3, 0xb24eac9dd81d7136ULL},
    {"ddr5-4800-32bank", "hydra", 3, 0x9c5795eefe55440dULL},
    {"hbm2-pc-16ch", "blockhammer", 0, 0x0ff5719891621239ULL},
    {"hbm2-pc-16ch", "rrs", 0, 0x0ff5719891621239ULL},
    {"hbm2-pc-16ch", "hydra", 0, 0x0ff5719891621239ULL},
    {"hbm2-pc-16ch", "blockhammer", 2, 0xd7551f51b605b9dcULL},
    {"hbm2-pc-16ch", "rrs", 2, 0xa6ca03e3ff5530a4ULL},
    {"hbm2-pc-16ch", "hydra", 2, 0xb612a7681ee0dc17ULL},
    {"hbm2-pc-16ch", "blockhammer", 3, 0xc921c430f8258d31ULL},
    {"hbm2-pc-16ch", "rrs", 3, 0xc921c430f8258d31ULL},
    {"hbm2-pc-16ch", "hydra", 3, 0xc50040a3884df29fULL},
    // clang-format on
};

const char *const kPresetGoldenDefenses[] = {"blockhammer", "rrs",
                                             "hydra"};

class GoldenStatsTest : public ::testing::Test
{
  protected:
    static std::shared_ptr<const core::VulnProfile> &
    s0Profile()
    {
        static std::shared_ptr<const core::VulnProfile> prof = [] {
            sim::SimConfig cfg;
            const auto &spec = dram::moduleByLabel("S0");
            auto sa = std::make_shared<dram::SubarrayMap>(spec);
            fault::VulnerabilityModel model(spec, sa);
            return std::make_shared<core::VulnProfile>(
                core::VulnProfile::fromModel(model)
                    .resampledTo(cfg.banksPerRank(), cfg.rowsPerBank)
                    .scaledTo(kThreshold));
        }();
        return prof;
    }

    static std::shared_ptr<const core::ThresholdProvider>
    makeProvider(const std::string &kind, const sim::SimConfig &cfg)
    {
        if (kind == "uniform")
            return std::make_shared<core::UniformThreshold>(
                kThreshold, cfg.rowsPerBank);
        return std::make_shared<core::Svard>(s0Profile());
    }

    static sim::RunResult
    runCell(const char *defense, const char *provider,
            uint32_t channels, uint32_t trace_kind)
    {
        sim::SimConfig cfg;
        cfg.channels = channels;
        return runCell(cfg, defense, makeProvider(provider, cfg),
                       trace_kind);
    }

    static sim::RunResult
    runPresetCell(const PresetGoldenCell &g)
    {
        const sim::SimConfig cfg = sim::presets::get(g.preset);
        return runCell(cfg, g.defense,
                       std::make_shared<core::UniformThreshold>(
                           kPresetThreshold, cfg.rowsPerBank),
                       g.trace);
    }

    static sim::RunResult
    runCell(const sim::SimConfig &cfg, const char *defense,
            std::shared_ptr<const core::ThresholdProvider> provider,
            uint32_t trace_kind)
    {
        const auto &suite = sim::benchmarkSuite();
        std::vector<std::vector<sim::TraceEntry>> traces;
        if (trace_kind == kAdvRrs || trace_kind == kAdvHydra) {
            // Core 0 hammers, the rest run the fixed benign mix —
            // the Fig. 13 setup, which fires preventive actions.
            traces.push_back(
                trace_kind == kAdvRrs
                    ? sim::adversarialRrsTrace(kReqs, kSeed, 1000, cfg)
                    : sim::adversarialHydraTrace(kReqs, kSeed, cfg));
            const sim::WorkloadMix benign =
                sim::adversarialBenignMix(cfg.cores);
            for (uint32_t c = 1; c < cfg.cores; ++c)
                traces.push_back(sim::generateTrace(
                    suite[benign.benchIdx[c - 1]], kReqs, kSeed,
                    sim::coreTraceOffset(kSeed, c)));
        } else {
            const auto mixes = sim::workloadMixes(2, cfg.cores);
            const sim::WorkloadMix &mix = mixes[trace_kind];
            for (uint32_t c = 0; c < mix.benchIdx.size(); ++c)
                traces.push_back(sim::generateTrace(
                    suite[mix.benchIdx[c]], kReqs, kSeed,
                    sim::coreTraceOffset(kSeed, c)));
        }
        sim::System sys(cfg, std::move(traces), kReqs, defense,
                        std::move(provider), kSeed);
        return sys.run();
    }
};

TEST_F(GoldenStatsTest, StatsBitIdenticalAcrossHotPathRewrites)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    if (dump) {
        const char *defenses[] = {"para",  "blockhammer", "hydra",
                                  "aqua",  "rrs",         "graphene"};
        const char *providers[] = {"uniform", "svard"};
        for (const char *d : defenses)
            for (const char *p : providers)
                for (uint32_t t : {kMix0, kMix1, kAdvRrs}) {
                    const sim::RunResult r = runCell(d, p, 1, t);
                    std::printf("    {\"%s\", \"%s\", 1, %u, "
                                "0x%016llxULL},\n",
                                d, p, t,
                                static_cast<unsigned long long>(
                                    statsFingerprint(r)));
                }
        const sim::RunResult rh =
            runCell("hydra", "svard", 1, kAdvHydra);
        std::printf("    {\"hydra\", \"svard\", 1, %u, "
                    "0x%016llxULL},\n",
                    static_cast<uint32_t>(kAdvHydra),
                    static_cast<unsigned long long>(
                        statsFingerprint(rh)));
        const sim::RunResult r = runCell("hydra", "svard", 2, kMix0);
        std::printf("    {\"hydra\", \"svard\", 2, 0, "
                    "0x%016llxULL},\n",
                    static_cast<unsigned long long>(
                        statsFingerprint(r)));
        for (const char *preset : {"ddr5-4800-32bank", "hbm2-pc-16ch"})
            for (uint32_t t : {kMix0, kAdvRrs, kAdvHydra})
                for (const char *d : kPresetGoldenDefenses) {
                    const PresetGoldenCell g{preset, d, t, 0};
                    std::printf("    {\"%s\", \"%s\", %u, "
                                "0x%016llxULL},\n",
                                preset, d, t,
                                static_cast<unsigned long long>(
                                    statsFingerprint(runPresetCell(g))));
                }
        GTEST_SKIP() << "golden dump mode";
    }

    for (const GoldenCell &g : kGolden) {
        const sim::RunResult r =
            runCell(g.defense, g.provider, g.channels, g.trace);
        EXPECT_EQ(statsFingerprint(r), g.fingerprint)
            << g.defense << "/" << g.provider << " ch=" << g.channels
            << " trace=" << g.trace << "\n  " << describeStats(r);
    }
}

TEST_F(GoldenStatsTest, PresetStatsBitIdenticalAcrossHotPathRewrites)
{
    if (std::getenv("SVARD_DUMP_GOLDEN") != nullptr)
        GTEST_SKIP() << "golden dump mode";
    ASSERT_EQ(std::size(kPresetGolden),
              2 * 3 * std::size(kPresetGoldenDefenses));
    for (const PresetGoldenCell &g : kPresetGolden) {
        const sim::RunResult r = runPresetCell(g);
        EXPECT_EQ(statsFingerprint(r), g.fingerprint)
            << g.preset << "/" << g.defense << " trace=" << g.trace
            << "\n  " << describeStats(r);
    }
}

// ------------------------------------------------------------------
// Allocation-free activate path
// ------------------------------------------------------------------

/** Drive `n` distinct-row read bursts through a bare controller. */
void
driveActivations(sim::MemController &mc, const sim::SimConfig &cfg,
                 uint32_t rows, dram::Tick *clock)
{
    for (uint32_t r = 0; r < rows; ++r) {
        sim::MemRequest req;
        req.core = 0;
        req.write = false;
        req.addr.rank = r % cfg.ranks;
        req.addr.bankGroup = (r / 2) % cfg.bankGroups;
        req.addr.bank = (r / 8) % cfg.banksPerGroup;
        req.addr.row = (r * 37) % 4096;
        req.addr.column = 0;
        req.arrive = *clock;
        // Under swap-heavy defenses a queue slot can take many
        // microseconds to free; keep simulating until one does.
        while (!mc.enqueue(req))
            *clock = mc.run(*clock + 500 * dram::kPsPerNs);
    }
    // Drain fully so the counted phase starts from an idle queue.
    while (!mc.idle())
        *clock = mc.run(*clock + 1000 * dram::kPsPerNs);
}

/** Drive a defense to steady state, then count heap allocations over
 *  one more full pass of the same working set. `warmup` passes are
 *  tuned so action paths (refresh, migrate, metadata) actually fire
 *  before counting starts (trigger point: 0.5 x threshold 64 = 32
 *  ACTs per row). */
uint64_t
countSteadyStateAllocs(const char *name, int warmup)
{
    sim::SimConfig cfg;
    auto provider = std::make_shared<core::UniformThreshold>(
        64.0, cfg.rowsPerBank);
    auto defense = defense::makeDefenseByName(
        name, defense::DefenseContext(cfg, provider, kSeed));
    if (!defense)
        return ~0ULL;
    sim::MemController mc(cfg, defense.get(), nullptr);

    dram::Tick clock = 0;
    for (int pass = 0; pass < warmup; ++pass)
        driveActivations(mc, cfg, 192, &clock);

    g_heapAllocs.store(0);
    g_countAllocs.store(true);
    driveActivations(mc, cfg, 192, &clock);
    g_countAllocs.store(false);
    return g_heapAllocs.load();
}

/**
 * After warm-up, the activate path — tryIssue, the defense's
 * onActivate into the controller's reusable ActionBuffer, the flat
 * counter tables, and the preventive-action execution — must perform
 * ZERO heap allocations. PARA/Hydra/BlockHammer reach steady state
 * in a few passes; AQUA and Graphene are warmed past their action
 * trigger points so migrations and neighbor refreshes fire during
 * the counted pass. (BlockHammer stays at short warm-up: past its
 * blacklist point it throttles with refresh-window-scale delays.)
 */
TEST(AllocationFreeActivatePath, SteadyStateTryIssueNeverAllocates)
{
    for (const char *name : {"para", "hydra", "blockhammer"})
        EXPECT_EQ(countSteadyStateAllocs(name, 4), 0u)
            << name << " allocated on the steady-state activate path";
    for (const char *name : {"aqua", "graphene"})
        EXPECT_EQ(countSteadyStateAllocs(name, 40), 0u)
            << name << " allocated on the steady-state activate path";
}

/** Fill the whole read queue with requests to one bank, alternating
 *  two rows (the adversarialRrsTrace shape), then drain it. */
void
driveSingleBankHammer(sim::MemController &mc, const sim::SimConfig &cfg,
                      dram::Tick *clock)
{
    for (uint32_t i = 0; i < cfg.readQueue; ++i) {
        sim::MemRequest req;
        req.core = 0;
        req.write = false;
        req.addr.rank = 0;
        req.addr.bankGroup = 1;
        req.addr.bank = 2;
        req.addr.row = (i & 1) ? 1002 : 1000;
        req.addr.column = (i / 2) % 128;
        req.arrive = *clock;
        ASSERT_TRUE(mc.enqueue(req));
    }
    while (!mc.idle())
        *clock = mc.run(*clock + 1000 * dram::kPsPerNs);
}

/**
 * The adversarial queue shape: every queued request sits in one bank,
 * so per-bank request storage is at its deepest. Once warm, refilling
 * and draining it must not allocate, with or without a defense.
 */
TEST(AllocationFreeActivatePath, FullQueueSingleBankHammerNeverAllocates)
{
    sim::SimConfig cfg;
    auto provider = std::make_shared<core::UniformThreshold>(
        64.0, cfg.rowsPerBank);
    for (const char *name : {"none", "para", "hydra"}) {
        auto defense = defense::makeDefenseByName(
            name, defense::DefenseContext(cfg, provider, kSeed));
        sim::MemController mc(cfg, defense.get(), nullptr);
        dram::Tick clock = 0;
        for (int pass = 0; pass < 4; ++pass)
            driveSingleBankHammer(mc, cfg, &clock);
        const uint64_t acts = mc.stats().activations;
        g_heapAllocs.store(0);
        g_countAllocs.store(true);
        for (int pass = 0; pass < 4; ++pass)
            driveSingleBankHammer(mc, cfg, &clock);
        g_countAllocs.store(false);
        EXPECT_GT(mc.stats().activations, acts) << name;
        EXPECT_EQ(g_heapAllocs.load(), 0u)
            << name << " allocated while hammering one bank";
    }
}

/**
 * RRS is exercised too but held to an amortized bound instead of
 * strict zero: each swap resets a RANDOM partner row's counter,
 * inserting fresh keys, so its flat table legitimately grows every
 * few thousand swaps. A handful of allocations per pass is table
 * growth; per-activation allocation would show up as hundreds.
 */
TEST(AllocationFreeActivatePath, RrsAllocatesOnlyForAmortizedGrowth)
{
    EXPECT_LE(countSteadyStateAllocs("rrs", 40), 16u);
}

} // namespace
