/**
 * @file
 * Repo benchmark entry point: runs one workload for a fixed time as
 * repeated closed-batch rounds, checks every output against recorded
 * digests, and prints the metrics as one JSON line (the last line of
 * stdout). Build and run it through perfbench/run.py:
 *
 *   python3 perfbench/run.py --workload mix-sweep --seed 1 \
 *       --seconds 20 --trace 0
 *
 * --trace 0 reports the end-to-end metrics of untraced rounds.
 * --trace 1 alternates untraced and traced rounds and reports the
 * per-layer metrics of the traced ones, plus trace.overhead_s (the
 * traced minus the untraced median wall time).
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

using namespace svard;
using namespace svard::perfbench;

namespace {

struct Metric
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced rounds); BENCHMARK.json order. */
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MiB"},
    {"success_rate", "fraction"},
};

/** Per-layer metrics (traced rounds); BENCHMARK.json order. A layer
 *  a workload bypasses reports 0. */
const std::vector<Metric> kPerLayer = {
    {"engine.prepare_s", "s"},
    {"engine.baselines_s", "s"},
    {"engine.baselines_executed", "count"},
    {"engine.cells_s", "s"},
    {"engine.cell_busy_s", "s"},
    {"engine.pool_busy_frac", "fraction"},
    {"sim.acts", "count"},
    {"sim.reads", "count"},
    {"sim.writes", "count"},
    {"sim.row_hit_frac", "fraction"},
    {"sim.refreshes", "count"},
    {"sim.runs", "count"},
    {"sim.self_s", "s"},
    {"sim.host_ns_per_act", "ns"},
    {"defense.calls", "count"},
    {"defense.busy_s", "s"},
    {"defense.ns_per_call", "ns"},
    {"defense.actions_per_call", "1/call"},
    {"defense.preventive_refreshes", "count"},
    {"defense.throttle_events", "count"},
    {"defense.swaps", "count"},
    {"defense.migrations", "count"},
    {"defense.metadata_accesses", "count"},
    {"defense.hydra_rcc_misses", "count"},
    {"defense.hydra_rcc_evictions", "count"},
    {"core.profile_s", "s"},
    {"core.buildprofile_s", "s"},
    {"charz.rows", "count"},
    {"charz.ber_measurements", "count"},
    {"charz.ber_per_row", "1/row"},
    {"charz.row_s.p50", "s"},
    {"charz.row_s.p90", "s"},
    {"charz.row_s.max", "s"},
    {"charz.row_s.n", "count"},
    {"fault.calls", "count"},
    {"fault.busy_s", "s"},
    {"dram.self_s", "s"},
    {"io.sink_rows", "count"},
    {"io.sink_busy_s", "s"},
    {"io.sink_queue_high_water", "count"},
    {"io.cache_stores", "count"},
    {"io.cache_misses", "count"},
    {"io.cache_bytes", "B"},
    {"drift.escapes", "count"},
    {"drift.recalibrations", "count"},
    {"trace.overhead_s", "s"},
};

/**
 * obs counts left out of the exact-repeat check because they can
 * depend on thread timing. cache.invalidated is also a known defect:
 * SweepCache counts a miss as an invalidation whenever a record with
 * the same seed exists, and drift cells share their static sibling's
 * seed by design, so a cold run reports invalidations although
 * nothing was invalidated. Whether the sibling is stored before the
 * probe depends on which worker ran it.
 */
const std::vector<std::string> kTimingDependentCounts = {
    "cache.invalidated", "io.sink_queue_high_water"};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: svard_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--short] "
                 "[--digests PATH] [--record-digests PATH] "
                 "[--work-dir DIR] [--spans PATH]\n",
                 why.c_str());
    std::exit(2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process image (VmHWM: unlike
 *  ru_maxrss it is not inherited across the exec from run.py). */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 20, '\n');
    }
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
modeName(bool short_mode)
{
    return short_mode ? "short" : "full";
}

/** Expected digests: lines "<workload> <mode> <seed> <index> <ops>
 *  <hex digest>"; '#' starts a comment. */
struct Reference
{
    std::vector<uint64_t> digests;
    std::vector<uint32_t> ops;
};

Reference
loadReference(const std::string &path, const WorkloadConfig &cfg)
{
    Reference ref;
    if (path.empty())
        return ref;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests \"" + path + "\"");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream f(line);
        std::string workload, mode, hex;
        uint64_t seed = 0;
        size_t index = 0;
        uint32_t ops = 0;
        if (!(f >> workload >> mode >> seed >> index >> ops >> hex))
            throw std::runtime_error("malformed digest line: " + line);
        if (workload != cfg.name || mode != modeName(cfg.shortMode) ||
            seed != cfg.seed)
            continue;
        if (index != ref.digests.size())
            throw std::runtime_error("digest lines out of order: " +
                                     line);
        ref.digests.push_back(std::stoull(hex, nullptr, 16));
        ref.ops.push_back(ops);
    }
    return ref;
}

void
recordReference(const std::string &path, const WorkloadConfig &cfg,
                const RoundResult &r)
{
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f)
        throw std::runtime_error("cannot append to \"" + path + "\"");
    for (size_t i = 0; i < r.digests.size(); ++i)
        std::fprintf(f, "%s %s %llu %zu %u %016llx\n", cfg.name.c_str(),
                     modeName(cfg.shortMode).c_str(),
                     static_cast<unsigned long long>(cfg.seed), i,
                     r.digestOps[i],
                     static_cast<unsigned long long>(r.digests[i]));
    if (std::fclose(f) != 0)
        throw std::runtime_error("write failed on \"" + path + "\"");
}

/** Operations of `r` that do not reproduce `ref` or fail a
 *  plausibility check. */
uint64_t
failedOps(const Reference &ref, const RoundResult &r)
{
    uint64_t failed = 0;
    for (size_t i = 0; i < ref.digests.size(); ++i) {
        const bool ok = i < r.digests.size() &&
                        r.digests[i] == ref.digests[i] && r.plausible[i];
        if (!ok)
            failed += ref.ops[i];
    }
    return failed;
}

/** Deterministic obs counts of a snapshot, by name. */
std::map<std::string, uint64_t>
deterministicCounts(const obs::Snapshot &s)
{
    std::map<std::string, uint64_t> out;
    for (const obs::MetricValue &m : s.metrics) {
        if (std::find(kTimingDependentCounts.begin(),
                      kTimingDependentCounts.end(),
                      m.name) != kTimingDependentCounts.end())
            continue;
        // A histogram's count is deterministic; its sum is a time.
        out[m.name] = m.value;
    }
    return out;
}

void
printMetric(std::string &json, const Metric &m, double v)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, v, m.unit);
    json += buf;
    std::printf("  %-30s %.6g %s\n", m.name, v, m.unit);
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin glibc's mmap threshold. Left dynamic, it rises after the
    // first large free, and whether later multi-MiB blocks are then
    // kept on the heap depends on the worker schedule: peak RSS of
    // one seed read 46 or 61 MiB from run to run. Pinned, large
    // blocks return to the OS when freed and peak RSS follows the
    // program's live memory. Every figure is taken under this policy,
    // which the repo's own binaries do not set (README.md gives its
    // measured effect).
    ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
    WorkloadConfig cfg;
    double seconds = -1.0;
    int trace = -1;
    bool have_seed = false;
    std::string digests_path, record_path, spans_path;
    cfg.workDir = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                cfg.name = value();
            else if (arg == "--seed") {
                cfg.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds")
                seconds = std::stod(value());
            else if (arg == "--trace")
                trace = std::stoi(value());
            else if (arg == "--short")
                cfg.shortMode = true;
            else if (arg == "--digests")
                digests_path = value();
            else if (arg == "--record-digests")
                record_path = value();
            else if (arg == "--work-dir")
                cfg.workDir = value();
            else if (arg == "--spans")
                spans_path = value();
            else
                usage("unknown argument \"" + arg + "\"");
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), cfg.name) == names.end())
        usage("unknown workload \"" + cfg.name + "\"");
    if (!have_seed || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds > 0 and --trace 0|1 are required");
    const bool traced = trace == 1;

    try {
        const Reference recorded = loadReference(digests_path, cfg);
        prepareProcess(cfg);

        // Without recorded digests for this seed, the first round is
        // the reference: every later round, traced or not, must
        // reproduce it exactly.
        Reference ref = recorded;
        const uint64_t planned = plannedOps(cfg);
        uint64_t attempted = 0, failed = 0;
        bool counts_repeat = true;
        std::map<std::string, uint64_t> first_counts;
        std::vector<double> setup_s, wall_s, ops_per_s, traced_wall_s;
        std::map<std::string, std::vector<double>> layers;
        SpanLog spans;

        // Hard stop well inside the 180 s a run may take.
        constexpr double kMaxSeconds = 150.0;
        const int min_rounds = traced ? 4 : 3;
        const auto run_start = Clock::now();
        double longest_round = 0.0;
        bool tracing_ready = false;
        for (int round = 0;; ++round) {
            const double elapsed = secondsSince(run_start);
            if (round >= min_rounds && elapsed >= seconds)
                break;
            if (round > 0 && elapsed + longest_round > kMaxSeconds)
                break;
            const bool traced_round = traced && round % 2 == 1;
            const std::string run_id = cfg.name + "/seed" +
                                       std::to_string(cfg.seed) +
                                       "/round" + std::to_string(round);
            TraceContext ctx{spans, run_id};
            if (traced_round && !tracing_ready) {
                prepareTracing(cfg); // after untraced round 0
                tracing_ready = true;
            }
            if (traced_round) {
                obs::resetMetrics();
                spans.setRun(run_id);
                ctx.root = spans.open(cfg.name.c_str(),
                                      SpanLog::kNoParent);
                setDefenseProbe(&ctx.defense);
            }
            const auto round_start = Clock::now();
            RoundResult r;
            bool threw = false;
            try {
                r = runRound(cfg, traced_round ? &ctx : nullptr);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: round %d failed: %s\n",
                             round, e.what());
                threw = true;
            }
            setDefenseProbe(nullptr);
            if (traced_round)
                spans.close(ctx.root);
            longest_round =
                std::max(longest_round, secondsSince(round_start));
            if (!threw)
                std::fprintf(stderr,
                             "perfbench: round %d%s setup %.4f s, "
                             "wall %.4f s, %llu ops\n",
                             round, traced_round ? " (traced)" : "",
                             r.setupS, r.wallS,
                             static_cast<unsigned long long>(r.ops));

            attempted += planned;
            if (threw) {
                failed += planned;
                continue;
            }
            if (ref.digests.empty()) {
                ref.digests = r.digests;
                ref.ops = r.digestOps;
                if (!record_path.empty())
                    recordReference(record_path, cfg, r);
            }
            failed += std::min<uint64_t>(planned, failedOps(ref, r));
            if (traced_round) {
                traced_wall_s.push_back(r.wallS);
                for (const auto &[name, v] : r.layers)
                    layers[name].push_back(v);
                const auto counts = deterministicCounts(r.counts);
                if (first_counts.empty()) {
                    first_counts = counts;
                } else if (counts != first_counts) {
                    counts_repeat = false;
                    for (const auto &[name, v] : counts)
                        if (first_counts[name] != v)
                            std::fprintf(
                                stderr,
                                "perfbench: count %s changed: %llu -> "
                                "%llu\n",
                                name.c_str(),
                                static_cast<unsigned long long>(
                                    first_counts[name]),
                                static_cast<unsigned long long>(v));
                }
            } else {
                setup_s.push_back(r.setupS);
                wall_s.push_back(r.wallS);
                ops_per_s.push_back(static_cast<double>(r.ops) /
                                    std::max(r.wallS - r.setupS, 1e-9));
            }
        }

        if (traced && !spans_path.empty() && !spans.write(spans_path))
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         spans_path.c_str());

        const double error_rate =
            static_cast<double>(failed) / static_cast<double>(attempted);
        std::printf("perfbench %s (%s, seed %llu): %zu untraced + %zu "
                    "traced rounds, %llu of %llu operations failed "
                    "(error_rate %.6g)%s\n",
                    cfg.name.c_str(), modeName(cfg.shortMode).c_str(),
                    static_cast<unsigned long long>(cfg.seed),
                    wall_s.size(), traced_wall_s.size(),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted),
                    error_rate,
                    recorded.digests.empty()
                        ? " [no recorded digests for this seed: "
                          "checked against the first round]"
                        : "");
        std::string metrics;
        if (!traced) {
            const double e2e[] = {median(setup_s), median(wall_s),
                                  median(ops_per_s), peakRssMiB(),
                                  1.0 - error_rate};
            for (size_t i = 0; i < kEndToEnd.size(); ++i)
                printMetric(metrics, kEndToEnd[i], e2e[i]);
        } else {
            layers["trace.overhead_s"] = {median(traced_wall_s) -
                                          median(wall_s)};
            for (const Metric &m : kPerLayer)
                printMetric(metrics, m, median(layers[m.name]));
        }
        const bool correct = failed == 0 && counts_repeat;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed),
                    metrics.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
