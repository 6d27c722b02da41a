#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "charz/characterizer.h"
#include "core/vuln_profile.h"
#include "dram/device.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"
#include "engine/runner.h"
#include "fault/vuln_model.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/trace.h"
#include "sim/workload.h"

namespace svard::perfbench {

namespace {

// Input sizes. A full round takes a few seconds on a 4-core host, so
// a 30 s run holds several rounds and reports their medians.
constexpr size_t kMixRequests = 1500;   ///< requests per core
constexpr size_t kAdvRequests = 1500;   ///< requests per core
constexpr uint32_t kCharzExtraRows = 36; ///< seeded rows per bank
constexpr size_t kShortRequests = 150;
constexpr uint32_t kShortCharzExtraRows = 1;

const std::vector<std::string> kMixDefenses = {"para", "hydra", "rrs",
                                               "blockhammer", "aqua"};
const std::vector<double> kMixThresholds = {1024, 128};
constexpr uint32_t kMixMixes = 2;
constexpr unsigned kMixThreads = 2;
constexpr double kAdvThreshold = 64;
/** Hydra-thrash trace length: adversarialHydraTrace cycles through
 *  8192 rows, twice Hydra's 4096-entry row-count cache, only when the
 *  trace has that many entries. The attacker core replays its trace,
 *  so a trace of requestsPerCore entries would touch 1500 rows and hit
 *  the cache after its first pass. */
constexpr size_t kHydraThrashEntries = 8192;
constexpr uint32_t kAdvRrsTargets = 4;
const std::vector<std::string> kAdvModules = {"S0", "M0", "H1"};
const std::vector<uint32_t> kCharzBanks = {1, 4, 10, 15};

/** splitmix64 stream: the benchmark's own input generator. */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /** Uniform in [lo, hi). */
    uint32_t
    range(uint32_t lo, uint32_t hi)
    {
        return lo + static_cast<uint32_t>(next() % (hi - lo));
    }

    /**
     * `n` rows of [lo, hi), one uniform draw from each of n equal
     * strata. HC_first varies with a row's location in the bank, so
     * stratifying keeps every seed's sample spread across the bank
     * and the work per round close to the same across seeds.
     */
    std::vector<uint32_t>
    stratified(uint32_t n, uint32_t lo, uint32_t hi)
    {
        std::vector<uint32_t> out;
        const uint64_t span = hi - lo;
        for (uint32_t i = 0; i < n; ++i)
            out.push_back(range(
                static_cast<uint32_t>(lo + span * i / n),
                static_cast<uint32_t>(lo + span * (i + 1) / n)));
        return out;
    }

  private:
    uint64_t s_;
};

/** A fresh directory under the work dir, removed with its contents. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
    {
        std::filesystem::create_directories(parent);
        std::string tmpl = parent + "/round-XXXXXX";
        if (!::mkdtemp(tmpl.data()))
            throw std::runtime_error("mkdtemp failed under " + parent);
        path_ = tmpl;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Times a phase; also a span when the round is traced. */
class Phase
{
  public:
    Phase(TraceContext *tr, const char *name)
        : tr_(tr), id_(tr ? tr->log.open(name, tr->root)
                          : SpanLog::kNoParent),
          start_(Clock::now())
    {}
    ~Phase() { end(); }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Close the phase (idempotent); returns its seconds. */
    double
    end()
    {
        if (!done_) {
            seconds_ = secondsSince(start_);
            if (tr_)
                tr_->log.close(id_);
            done_ = true;
        }
        return seconds_;
    }

    uint32_t id() const { return id_; }

  private:
    TraceContext *tr_;
    uint32_t id_;
    Clock::time_point start_;
    bool done_ = false;
    double seconds_ = 0.0;
};

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

double
histogramSum(const obs::Snapshot &s, const std::string &name)
{
    const obs::MetricValue *m = s.find(name);
    return m ? static_cast<double>(m->sum) : 0.0;
}

double
count(const obs::Snapshot &s, const char *name)
{
    return static_cast<double>(s.value(name));
}

double
safeDiv(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * core.profile_s: the profile pipeline a sweep runs before its first
 * cell (fromModel + resampledTo per module, scaledTo + settled
 * occupancy per threshold), timed through its public functions.
 */
double
timeProfileBuild(TraceContext &tr, const std::vector<std::string> &labels,
                 const std::vector<double> &thresholds,
                 const sim::SimConfig &cfg)
{
    ScopedSpan span(tr.log, "core.profile", tr.root);
    const auto start = Clock::now();
    for (const std::string &label : labels) {
        const auto &spec = dram::moduleByLabel(label);
        auto sa = std::make_shared<dram::SubarrayMap>(spec);
        fault::VulnerabilityModel model(spec, sa);
        const core::VulnProfile base =
            core::VulnProfile::fromModel(model).resampledTo(
                cfg.banksPerRank(), cfg.rowsPerBank);
        for (double t : thresholds) {
            const core::VulnProfile scaled = base.scaledTo(t);
            if (!finitePositive(scaled.minThreshold()))
                throw std::runtime_error("degenerate scaled profile");
        }
    }
    return secondsSince(start);
}

/** The sim and defense layers of a traced sweep round. */
void
simDefenseLayers(const TraceContext &tr, RoundResult &out)
{
    const obs::Snapshot &s = out.counts;
    auto &L = out.layers;
    const double reads = count(s, "sim.reads");
    const double writes = count(s, "sim.writes");
    L["sim.acts"] = count(s, "sim.activations");
    L["sim.reads"] = reads;
    L["sim.writes"] = writes;
    L["sim.row_hit_frac"] = safeDiv(count(s, "sim.row_hits"),
                                    reads + writes);
    L["sim.refreshes"] = count(s, "sim.refreshes");
    L["sim.runs"] = count(s, "sim.runs");

    const double calls =
        static_cast<double>(tr.defense.counter.calls.load());
    const double busy = tr.defense.counter.busySeconds();
    double cell_s = 0.0;
    for (double d : tr.log.durations("sim.cell", tr.run))
        cell_s += d;
    // The decorator lives from the cell's System construction to its
    // destruction, so a "sim.cell" span is the cell's simulation; the
    // drift evaluation and cache store of a cell fall outside it.
    L["sim.self_s"] = cell_s - busy;
    L["sim.host_ns_per_act"] = safeDiv((cell_s - busy) * 1e9, calls);

    L["defense.calls"] = calls;
    L["defense.busy_s"] = busy;
    L["defense.ns_per_call"] = safeDiv(busy * 1e9, calls);
    L["defense.actions_per_call"] = safeDiv(
        static_cast<double>(tr.defense.counter.outputs.load()), calls);
    L["defense.preventive_refreshes"] =
        count(s, "defense.preventive_refreshes");
    L["defense.throttle_events"] = count(s, "defense.throttle_events");
    L["defense.swaps"] = count(s, "defense.swaps");
    L["defense.migrations"] = count(s, "defense.migrations");
    L["defense.metadata_accesses"] =
        count(s, "defense.metadata_accesses");
    L["defense.hydra_rcc_misses"] =
        static_cast<double>(tr.defense.rccMisses.load());
    L["defense.hydra_rcc_evictions"] =
        static_cast<double>(tr.defense.rccEvictions.load());
}

// ------------------------------------------------------------------
// mix-sweep: a Fig. 12-shaped grid through engine::ExperimentRunner
// ------------------------------------------------------------------

engine::SweepSpec
mixSpec(const WorkloadConfig &cfg)
{
    engine::SweepSpec spec; // Table-4 DDR4 system
    spec.requestsPerCore = cfg.shortMode ? kShortRequests : kMixRequests;
    spec.baseSeed = cfg.seed;
    spec.threads = kMixThreads;
    spec.defenses = kMixDefenses;
    spec.thresholds = kMixThresholds;
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S0")};
    engine::DriftSpec drift;
    drift.model = "aging:64";
    drift.policy = "periodic:8";
    drift.epochs = 32;
    drift.guardband = 0.02;
    spec.drifts = {engine::DriftSpec{}, drift};
    const auto mixes = sim::workloadMixes(120, spec.config.cores);
    spec.mixes.assign(mixes.begin(), mixes.begin() + kMixMixes);
    spec.progressLabel = "perfbench-mix-sweep";
    return spec;
}

RoundResult
runMixSweep(const WorkloadConfig &cfg, TraceContext *tr)
{
    RoundResult out;
    const auto start = Clock::now();
    ScratchDir dir(cfg.workDir);
    const std::string csv_path = dir.path() + "/cells.csv";
    const std::string cache_path = dir.path() + "/cache.svc";

    engine::SweepSpec spec = mixSpec(cfg);
    std::unique_ptr<io::ResultSink> csv =
        std::make_unique<io::CsvSink>(csv_path);
    TimedSink *timed = nullptr;
    if (tr) {
        auto t = std::make_unique<TimedSink>(std::move(csv), tr->log,
                                             tr->root);
        timed = t.get();
        csv = std::move(t);
    }
    auto async = std::make_shared<io::AsyncSink>(std::move(csv));
    auto cache = std::make_shared<io::SweepCache>(cache_path);
    spec.sink = async;
    spec.cache = cache;

    std::vector<char> plausible;
    {
        Phase prepare(tr, "engine.prepare");
        engine::ExperimentRunner runner(std::move(spec));
        runner.prepareCells();
        out.layers["engine.prepare_s"] = prepare.end();

        Phase baselines(tr, "engine.baselines");
        runner.ensureBaselines();
        out.layers["engine.baselines_s"] = baselines.end();
        out.layers["engine.baselines_executed"] =
            static_cast<double>(runner.executedBaselines());
        out.setupS = secondsSince(start);

        Phase cells(tr, "engine.cells");
        if (tr)
            tr->defense.parent = cells.id();
        const auto &results = runner.run();
        out.layers["engine.cells_s"] = cells.end();
        out.ops = results.size();
        for (const auto &r : results)
            plausible.push_back(
                finitePositive(r.normalized.weightedSpeedup) &&
                finitePositive(r.normalized.harmonicSpeedup) &&
                finitePositive(r.normalized.maxSlowdown));
        out.layers["io.sink_queue_high_water"] =
            static_cast<double>(async->maxDepthSeen());
    }
    // The runner is gone; dropping the last references joins the
    // sink's writer thread and closes both files.
    if (timed) {
        out.layers["io.sink_rows"] = static_cast<double>(timed->rows());
        out.layers["io.sink_busy_s"] = timed->busySeconds();
    }
    async.reset();
    cache.reset();
    out.wallS = secondsSince(start);

    // One digest per sink row, read back from the file users get.
    std::ifstream in(csv_path);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line) && out.digests.size() < out.ops) {
        out.digests.push_back(Digest().str(line).value());
        out.digestOps.push_back(1);
        out.plausible.push_back(plausible[out.digests.size() - 1]);
    }
    if (!tr)
        return out;

    out.layers["io.cache_bytes"] =
        static_cast<double>(std::filesystem::file_size(cache_path));
    out.counts = obs::snapshot();
    const obs::Snapshot &s = out.counts;
    const double busy = histogramSum(s, "sweep.cell_wall_us") * 1e-6;
    out.layers["engine.cell_busy_s"] = busy;
    out.layers["engine.pool_busy_frac"] = safeDiv(
        busy, kMixThreads * out.layers["engine.cells_s"]);
    out.layers["io.cache_stores"] = count(s, "cache.stores");
    out.layers["io.cache_misses"] = count(s, "cache.misses");
    out.layers["drift.escapes"] = count(s, "drift.escapes");
    out.layers["drift.recalibrations"] = count(s, "drift.recalibrations");
    simDefenseLayers(*tr, out);
    out.layers["core.profile_s"] = timeProfileBuild(
        *tr, {"S0"}, kMixThresholds, sim::SimConfig{});
    return out;
}

// ------------------------------------------------------------------
// adversarial: a Fig. 13-shaped grid through runAdversarialSweep
// ------------------------------------------------------------------

engine::AdversarialSpec
adversarialSpec(const WorkloadConfig &cfg)
{
    engine::AdversarialSpec adv; // Table-4 DDR4 system
    adv.threshold = kAdvThreshold;
    adv.requestsPerCore =
        cfg.shortMode ? kShortRequests : kAdvRequests;
    adv.baseSeed = cfg.seed;
    adv.threads = 1;
    adv.progressLabel = "perfbench-adversarial";
    const size_t n = adv.requestsPerCore;
    adv.cases.push_back(
        {"Hydra-thrash", "hydra",
         {sim::adversarialHydraTrace(std::max(n, kHydraThrashEntries), 3,
                                     adv.config)}});
    // The RRS attacker hammers the pair (row, row + 2); the seed picks
    // the target rows, as an attacker ignorant of the profile would.
    InputRng rng(cfg.seed ^ 0xADF5EEDull);
    engine::AdversarialCase rrs{"RRS-swap", "rrs", {}};
    for (uint32_t row : rng.stratified(kAdvRrsTargets, 0,
                                       adv.config.rowsPerBank - 2))
        rrs.traces.push_back(
            sim::adversarialRrsTrace(n, 3, row, adv.config));
    adv.cases.push_back(std::move(rrs));
    adv.providers = {engine::ProviderSpec::uniform()};
    for (const std::string &m : kAdvModules)
        adv.providers.push_back(engine::ProviderSpec::svard(m));
    return adv;
}

RoundResult
runAdversarial(const WorkloadConfig &cfg, TraceContext *tr)
{
    RoundResult out;
    resetNoneMarker();
    const int64_t start_ns = nowNs();
    std::vector<engine::AdversarialResult> results;
    {
        Phase sweep(tr, "engine.adversarial");
        if (tr)
            tr->defense.parent = sweep.id();
        const engine::AdversarialSpec adv = adversarialSpec(cfg);
        results = engine::runAdversarialSweep(adv);
        for (const auto &c : adv.cases)
            out.ops += c.traces.size() * adv.providers.size();
        for (const auto &r : results) {
            size_t traces = 0;
            for (const auto &c : adv.cases)
                if (c.name == r.caseName)
                    traces = c.traces.size();
            out.digests.push_back(Digest()
                                      .str(r.caseName)
                                      .str(r.defense)
                                      .str(r.provider)
                                      .f64(r.benignWs)
                                      .f64(r.slowdown)
                                      .f64(r.normalizedSlowdown)
                                      .value());
            out.digestOps.push_back(static_cast<uint32_t>(traces));
            out.plausible.push_back(finitePositive(r.benignWs) &&
                                    finitePositive(r.slowdown) &&
                                    finitePositive(r.normalizedSlowdown));
        }
    }
    out.wallS = (nowNs() - start_ns) * 1e-9;
    // Set-up ends where the first no-defense reference run starts:
    // profiles and alone-IPC baselines are built by then.
    const int64_t first_ref = firstNoneNs();
    if (first_ref == 0)
        throw std::runtime_error("no reference run was observed");
    out.setupS = (first_ref - start_ns) * 1e-9;
    if (!tr)
        return out;

    out.counts = obs::snapshot();
    const int64_t first_cell = tr->defense.firstCellNs.load();
    const double cells_s = out.wallS - (first_cell - start_ns) * 1e-9;
    double busy = 0.0;
    for (double d : tr->log.durations("sim.cell", tr->run))
        busy += d;
    auto &L = out.layers;
    L["engine.prepare_s"] = out.setupS;
    L["engine.baselines_s"] = (first_cell - first_ref) * 1e-9;
    L["engine.baselines_executed"] =
        count(out.counts, "sim.runs") - static_cast<double>(out.ops);
    L["engine.cells_s"] = cells_s;
    L["engine.cell_busy_s"] = busy;
    L["engine.pool_busy_frac"] = safeDiv(busy, cells_s);
    simDefenseLayers(*tr, out);
    L["core.profile_s"] = timeProfileBuild(*tr, kAdvModules,
                                           {kAdvThreshold},
                                           sim::SimConfig{});
    return out;
}

// ------------------------------------------------------------------
// charz: Alg. 1 on all 15 modules, then buildProfile per module
// ------------------------------------------------------------------

/** One module under test (device built over an optional probe). */
struct CharzRig
{
    CharzRig(const dram::ModuleSpec &s, CallCounter *fault)
        : spec(s), subarrays(std::make_shared<dram::SubarrayMap>(s))
    {
        std::shared_ptr<const dram::DisturbanceModel> model =
            std::make_shared<fault::VulnerabilityModel>(s, subarrays);
        if (fault)
            model = std::make_shared<CountingModel>(model, *fault);
        device = std::make_unique<dram::DramDevice>(s, subarrays, model);
        charz = std::make_unique<charz::Characterizer>(*device);
    }

    const dram::ModuleSpec &spec;
    std::shared_ptr<dram::SubarrayMap> subarrays;
    std::unique_ptr<dram::DramDevice> device;
    std::unique_ptr<charz::Characterizer> charz;
    charz::CharzOptions opt;
};

uint32_t
charzExtraRows(const WorkloadConfig &cfg)
{
    return cfg.shortMode ? kShortCharzExtraRows : kCharzExtraRows;
}

/** Alg. 1 options of one module: all six data patterns, 2
 *  iterations, 1 thread; row 0 plus seed-picked rows of each bank. */
charz::CharzOptions
charzOptions(const WorkloadConfig &cfg, const dram::ModuleSpec &spec,
             size_t module_index)
{
    charz::CharzOptions opt;
    opt.banks = kCharzBanks;
    opt.quickWcdp = false;
    opt.iterations = 2;
    opt.threads = 1;
    opt.rowStep = spec.rowsPerBank; // the stride alone picks row 0
    InputRng rng(cfg.seed * 0x100000001B3ull + module_index);
    opt.extraRows =
        rng.stratified(charzExtraRows(cfg), 1, spec.rowsPerBank);
    return opt;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t i = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size()))) - 1;
    return v[std::min(i, v.size() - 1)];
}

/** The program's span recorder (obs::startTrace), on for the life of
 *  this object; its file lives in a scratch directory. */
class ProgramTrace
{
  public:
    explicit ProgramTrace(const std::string &work_dir) : dir_(work_dir)
    {
        if (obs::traceEnabled())
            throw std::runtime_error("the program's span recorder is "
                                     "already on (SVARD_TRACE?)");
        obs::startTrace(path());
    }
    ~ProgramTrace() { obs::stopTrace(); }
    ProgramTrace(const ProgramTrace &) = delete;
    ProgramTrace &operator=(const ProgramTrace &) = delete;

    /** Stop recording; durations (s) of the complete events
     *  `cat`/`name` in the written file (one event per line). */
    std::vector<double>
    durations(const std::string &cat, const std::string &name)
    {
        obs::stopTrace();
        std::ifstream in(path());
        if (!in)
            throw std::runtime_error("cannot read trace \"" + path() +
                                     "\"");
        const std::string head = "{\"name\": \"" + name +
                                 "\", \"cat\": \"" + cat + "\", ";
        std::vector<double> out;
        std::string line;
        while (std::getline(in, line)) {
            const size_t dur = line.find("\"dur\": ");
            if (line.rfind(head, 0) == 0 && dur != std::string::npos)
                out.push_back(std::stod(line.substr(dur + 7)) * 1e-6);
        }
        return out;
    }

  private:
    std::string path() const { return dir_.path() + "/trace.json"; }

    ScratchDir dir_;
};

RoundResult
runCharz(const WorkloadConfig &cfg, TraceContext *tr)
{
    RoundResult out;
    const auto start = Clock::now();
    std::vector<std::unique_ptr<CharzRig>> rigs;
    {
        Phase setup(tr, "charz.setup");
        const auto &modules = dram::allModules();
        for (size_t m = 0; m < modules.size(); ++m) {
            rigs.push_back(std::make_unique<CharzRig>(
                modules[m], tr ? &tr->fault : nullptr));
            rigs.back()->opt = charzOptions(cfg, modules[m], m);
        }
    }
    out.setupS = secondsSince(start);

    // Traced rounds run the same characterizeModule calls with the
    // program's own span recorder on, and read each row's time from
    // its "charz"/"row" spans: the charz.row_wall_us histogram has
    // only log2 buckets and no maximum.
    std::unique_ptr<ProgramTrace> rec;
    if (tr)
        rec = std::make_unique<ProgramTrace>(cfg.workDir);
    double buildprofile_s = 0.0;
    uint64_t ber_measurements = 0;
    for (const auto &rig : rigs) {
        std::vector<charz::RowResult> rows;
        {
            Phase module(tr, "charz.module");
            rows = rig->charz->characterizeModule(rig->opt);
        }
        Phase build(tr, "core.buildprofile");
        const core::VulnProfile prof =
            charz::buildProfile(rig->spec, rows);
        buildprofile_s += build.end();
        const bool profile_ok = finitePositive(prof.minThreshold());
        for (const charz::RowResult &r : rows) {
            out.digests.push_back(
                Digest()
                    .u64(r.bank)
                    .u64(r.logicalRow)
                    .u64(r.physRow)
                    .f64(r.relativeLocation)
                    .u64(static_cast<uint64_t>(r.wcdp))
                    .f64(r.ber128k)
                    .u64(static_cast<uint64_t>(r.hcFirst))
                    .u64(r.flippedAtMaxCount ? 1 : 0)
                    .u64(r.numAggressors)
                    .value());
            out.digestOps.push_back(1);
            out.plausible.push_back(profile_ok && r.hcFirst > 0 &&
                                    r.ber128k >= 0.0 &&
                                    r.ber128k <= 1.0);
        }
        out.ops += rows.size();
        ber_measurements += rig->charz->berMeasurements();
    }
    out.wallS = secondsSince(start);
    if (!tr)
        return out;

    const std::vector<double> row_s = rec->durations("charz", "row");
    if (row_s.size() != out.ops)
        throw std::runtime_error("the program traced " +
                                 std::to_string(row_s.size()) +
                                 " charz rows of " +
                                 std::to_string(out.ops));
    out.counts = obs::snapshot();
    auto &L = out.layers;
    double rows_total_s = 0.0;
    for (double s : row_s)
        rows_total_s += s;
    L["charz.rows"] = static_cast<double>(out.ops);
    L["charz.ber_measurements"] = static_cast<double>(ber_measurements);
    L["charz.ber_per_row"] =
        safeDiv(static_cast<double>(ber_measurements),
                static_cast<double>(out.ops));
    L["charz.row_s.p50"] = percentile(row_s, 0.50);
    L["charz.row_s.p90"] = percentile(row_s, 0.90);
    L["charz.row_s.max"] = percentile(row_s, 1.0);
    L["charz.row_s.n"] = static_cast<double>(row_s.size());
    L["fault.calls"] = static_cast<double>(tr->fault.calls.load());
    L["fault.busy_s"] = tr->fault.busySeconds();
    L["dram.self_s"] = rows_total_s - tr->fault.busySeconds();
    L["core.buildprofile_s"] = buildprofile_s;
    return out;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mix-sweep",
                                                   "adversarial", "charz"};
    return names;
}

uint64_t
plannedOps(const WorkloadConfig &cfg)
{
    if (cfg.name == "mix-sweep") {
        const engine::SweepSpec s = mixSpec(cfg);
        return s.defenses.size() * s.thresholds.size() *
               s.providers.size() * s.drifts.size() * s.mixes.size();
    }
    if (cfg.name == "adversarial") {
        const engine::AdversarialSpec adv = adversarialSpec(cfg);
        uint64_t ops = 0;
        for (const auto &c : adv.cases)
            ops += c.traces.size() * adv.providers.size();
        return ops;
    }
    return dram::allModules().size() * kCharzBanks.size() *
           (1 + charzExtraRows(cfg));
}

void
prepareProcess(const WorkloadConfig &cfg)
{
    if (cfg.name == "adversarial")
        installNoneMarker();
}

void
prepareTracing(const WorkloadConfig &cfg)
{
    if (cfg.name == "mix-sweep")
        installDefenseProbes(kMixDefenses);
    else if (cfg.name == "adversarial")
        installDefenseProbes({"hydra", "rrs"});
}

RoundResult
runRound(const WorkloadConfig &cfg, TraceContext *trace)
{
    if (cfg.name == "mix-sweep")
        return runMixSweep(cfg, trace);
    if (cfg.name == "adversarial")
        return runAdversarial(cfg, trace);
    if (cfg.name == "charz")
        return runCharz(cfg, trace);
    throw std::invalid_argument("unknown workload \"" + cfg.name + "\"");
}

} // namespace svard::perfbench
