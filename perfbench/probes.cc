#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>

#include "defense/aqua.h"
#include "defense/blockhammer.h"
#include "defense/hydra.h"
#include "defense/para.h"
#include "defense/registry.h"
#include "defense/rrs.h"

namespace svard::perfbench {

Digest &
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
    return *this;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

void
SpanLog::setRun(const std::string &run_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    run_ = run_id;
}

uint32_t
SpanLog::open(const char *name, uint32_t parent)
{
    const int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back({name, run_, parent, start, -1});
    return static_cast<uint32_t>(recs_.size() - 1);
}

void
SpanLog::close(uint32_t id)
{
    const int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    recs_.at(id).endNs = end;
}

std::vector<double>
SpanLog::durations(const std::string &name, const std::string &run) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Rec &r : recs_)
        if (r.endNs >= 0 && r.name == name && r.run == run)
            out.push_back((r.endNs - r.startNs) * 1e-9);
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Self time: a span's duration minus the union of its children's
    // intervals, clipped to the span (pool workers run child cells
    // side by side, so children may overlap).
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        recs_.size());
    for (const Rec &r : recs_)
        if (r.endNs >= 0 && r.parent != kNoParent)
            kids[r.parent].push_back({r.startNs, r.endNs});
    std::map<std::string, std::pair<double, double>> summary;
    for (uint32_t id = 0; id < recs_.size(); ++id) {
        const Rec &r = recs_[id];
        if (r.endNs < 0)
            continue;
        auto &ivs = kids[id];
        std::sort(ivs.begin(), ivs.end());
        int64_t covered = 0, cur_s = 0, cur_e = 0;
        for (auto [s, e] : ivs) {
            s = std::max(s, r.startNs);
            e = std::min(e, r.endNs);
            if (e <= s)
                continue;
            if (s > cur_e) {
                covered += cur_e - cur_s;
                cur_s = s;
                cur_e = e;
            } else {
                cur_e = std::max(cur_e, e);
            }
        }
        covered += cur_e - cur_s;
        auto &[total, self] = summary[r.name];
        total += (r.endNs - r.startNs) * 1e-9;
        self += (r.endNs - r.startNs - covered) * 1e-9;
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fputs("{\"spans\": [\n", f) >= 0;
    for (uint32_t id = 0; ok && id < recs_.size(); ++id) {
        const Rec &r = recs_[id];
        ok = std::fprintf(f,
                          "{\"id\": %u, \"parent\": %lld, \"name\": "
                          "\"%s\", \"run\": \"%s\", \"start_ns\": %lld, "
                          "\"end_ns\": %lld}%s\n",
                          id,
                          r.parent == kNoParent
                              ? -1LL
                              : static_cast<long long>(r.parent),
                          r.name.c_str(), r.run.c_str(),
                          static_cast<long long>(r.startNs),
                          static_cast<long long>(r.endNs),
                          id + 1 < recs_.size() ? "," : "") >= 0;
    }
    ok = ok && std::fputs("],\n\"summary\": {\n", f) >= 0;
    size_t i = 0;
    for (const auto &[name, t] : summary)
        ok = ok && std::fprintf(f,
                                "\"%s\": {\"total_s\": %.9f, "
                                "\"self_s\": %.9f}%s\n",
                                name.c_str(), t.first, t.second,
                                ++i < summary.size() ? "," : "") >= 0;
    ok = ok && std::fputs("}}\n", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------------------
// Sampled call counting
// ------------------------------------------------------------------

double
CallCounter::busySeconds() const
{
    const uint64_t n = sampled.load();
    if (n == 0)
        return 0.0;
    return static_cast<double>(sampledNs.load()) * 1e-9 *
           static_cast<double>(calls.load()) / static_cast<double>(n);
}

bool
sampleCall(uint64_t i)
{
    // splitmix64 finalizer: decorrelates the sample from any period
    // in the call sequence.
    i += 0x9E3779B97F4A7C15ull;
    i = (i ^ (i >> 30)) * 0xBF58476D1CE4E5B9ull;
    i = (i ^ (i >> 27)) * 0x94D049BB133111EBull;
    i ^= i >> 31;
    return (i & 7) == 0;
}

// ------------------------------------------------------------------
// Defense decorator
// ------------------------------------------------------------------

namespace {

std::atomic<DefenseProbe *> g_probe{nullptr};
std::atomic<int64_t> g_first_none{0};

/**
 * Forwards every call to the wrapped defense and mirrors its stats,
 * which the simulator reads through the non-virtual Defense::stats().
 * Its lifetime is one simulated cell, so it doubles as the cell span.
 * Counts accumulate locally and are published once, at destruction.
 */
class TimedDefense final : public defense::Defense
{
  public:
    TimedDefense(std::unique_ptr<defense::Defense> inner,
                 const defense::DefenseContext &ctx, DefenseProbe &probe)
        : Defense(ctx.provider), inner_(std::move(inner)), probe_(probe),
          span_(probe.log->open("sim.cell", probe.parent))
    {
        setBanksPerRank(inner_->banksPerRank());
        stats_ = inner_->stats();
        int64_t unset = 0;
        probe_.firstCellNs.compare_exchange_strong(unset, nowNs());
    }

    ~TimedDefense() override
    {
        probe_.counter.calls += calls_;
        probe_.counter.sampled += sampled_;
        probe_.counter.sampledNs += sampledNs_;
        probe_.counter.outputs += actions_;
        if (const auto *h =
                dynamic_cast<const defense::Hydra *>(inner_.get())) {
            // A miss fetches the counter line; a miss into a full
            // cache also writes back the evicted line.
            probe_.rccMisses += h->rccMisses();
            probe_.rccEvictions +=
                h->stats().metadataAccesses - h->rccMisses();
        }
        probe_.log->close(span_);
    }

    const char *name() const override { return inner_->name(); }

    void
    onActivate(uint32_t bank, uint32_t row, dram::Tick now,
               std::vector<defense::PreventiveAction> &out) override
    {
        const size_t before = out.size();
        if (sampleCall(calls_++)) {
            const auto t0 = Clock::now();
            inner_->onActivate(bank, row, now, out);
            sampledNs_ += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count());
            ++sampled_;
        } else {
            inner_->onActivate(bank, row, now, out);
        }
        actions_ += out.size() - before;
        stats_ = inner_->stats();
    }

    void
    onEpochEnd(dram::Tick now) override
    {
        inner_->onEpochEnd(now);
        stats_ = inner_->stats();
    }

    void
    tableStats(uint64_t *entries, uint64_t *rehashes) const override
    {
        inner_->tableStats(entries, rehashes);
    }

  private:
    std::unique_ptr<defense::Defense> inner_;
    DefenseProbe &probe_;
    uint32_t span_;
    uint64_t calls_ = 0;
    uint64_t sampled_ = 0;
    uint64_t sampledNs_ = 0;
    uint64_t actions_ = 0;
};

using InnerFactory = std::function<std::unique_ptr<defense::Defense>(
    const defense::DefenseContext &)>;

/** The built-in factories of defense/registry.cc, one for one. */
const std::map<std::string, InnerFactory> &
builtins()
{
    static const std::map<std::string, InnerFactory> table = {
        {"para",
         [](const defense::DefenseContext &ctx) {
             return std::make_unique<defense::Para>(ctx.provider,
                                                    ctx.seed);
         }},
        {"blockhammer",
         [](const defense::DefenseContext &ctx) {
             defense::BlockHammer::Params p;
             p.blacklistFraction =
                 ctx.param("blacklist_fraction", p.blacklistFraction);
             return std::make_unique<defense::BlockHammer>(ctx.provider,
                                                           p);
         }},
        {"hydra",
         [](const defense::DefenseContext &ctx) {
             return std::make_unique<defense::Hydra>(ctx.provider);
         }},
        {"aqua",
         [](const defense::DefenseContext &ctx) {
             return std::make_unique<defense::Aqua>(ctx.provider);
         }},
        {"rrs",
         [](const defense::DefenseContext &ctx) {
             return std::make_unique<defense::Rrs>(
                 ctx.provider, defense::Rrs::Params{}, ctx.seed);
         }},
    };
    return table;
}

} // anonymous namespace

void
installDefenseProbes(const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        const auto it = builtins().find(name);
        if (it == builtins().end())
            throw std::invalid_argument("no probe for defense \"" +
                                        name + "\"");
        const InnerFactory build = it->second;
        defense::DefenseRegistry::instance().add(
            name,
            [build](const defense::DefenseContext &ctx)
                -> std::unique_ptr<defense::Defense> {
                if (ctx.banksPerRank == 0)
                    throw std::invalid_argument(
                        "DefenseContext::banksPerRank is unset");
                std::unique_ptr<defense::Defense> d = build(ctx);
                d->setBanksPerRank(ctx.banksPerRank);
                DefenseProbe *probe = g_probe.load();
                if (!probe)
                    return d;
                return std::make_unique<TimedDefense>(std::move(d), ctx,
                                                      *probe);
            });
    }
}

void
setDefenseProbe(DefenseProbe *probe)
{
    g_probe.store(probe);
}

void
installNoneMarker()
{
    defense::DefenseRegistry::instance().add(
        "none",
        [](const defense::DefenseContext &)
            -> std::unique_ptr<defense::Defense> {
            int64_t unset = 0;
            g_first_none.compare_exchange_strong(unset, nowNs());
            return nullptr;
        });
}

int64_t
firstNoneNs()
{
    return g_first_none.load();
}

void
resetNoneMarker()
{
    g_first_none.store(0);
}

// ------------------------------------------------------------------
// Fault-model decorator
// ------------------------------------------------------------------

template <typename F>
double
CountingModel::timed(F &&f) const
{
    if (!sampleCall(counter_.calls.fetch_add(1,
                                             std::memory_order_relaxed)))
        return f();
    const auto t0 = Clock::now();
    const double v = f();
    counter_.sampledNs.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    counter_.sampled.fetch_add(1, std::memory_order_relaxed);
    return v;
}

double
CountingModel::hcFirst(uint32_t bank, uint32_t phys_row) const
{
    return timed([&] { return inner_->hcFirst(bank, phys_row); });
}

double
CountingModel::berAt(uint32_t bank, uint32_t phys_row,
                     double eff_hammers) const
{
    return timed(
        [&] { return inner_->berAt(bank, phys_row, eff_hammers); });
}

double
CountingModel::actWeight(uint32_t bank, uint32_t phys_row,
                         dram::Tick t_agg_on) const
{
    return timed(
        [&] { return inner_->actWeight(bank, phys_row, t_agg_on); });
}

double
CountingModel::trueCellFraction(uint32_t bank, uint32_t phys_row) const
{
    return timed(
        [&] { return inner_->trueCellFraction(bank, phys_row); });
}

double
CountingModel::sameDataCoupling(uint32_t bank, uint32_t phys_row) const
{
    return timed(
        [&] { return inner_->sameDataCoupling(bank, phys_row); });
}

double
CountingModel::patternJitter(uint32_t bank, uint32_t phys_row,
                             uint8_t victim_fill, uint8_t aggr_fill) const
{
    return timed([&] {
        return inner_->patternJitter(bank, phys_row, victim_fill,
                                     aggr_fill);
    });
}

// ------------------------------------------------------------------
// Sink decorator
// ------------------------------------------------------------------

void
TimedSink::write(const engine::CellResult &row)
{
    ScopedSpan span(log_, "io.sink_write", parent_);
    const auto t0 = Clock::now();
    inner_->write(row);
    busyNs_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    ++rows_;
}

void
TimedSink::flush()
{
    ScopedSpan span(log_, "io.sink_flush", parent_);
    const auto t0 = Clock::now();
    inner_->flush();
    busyNs_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

} // namespace svard::perfbench
