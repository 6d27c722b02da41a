/**
 * @file
 * Unit tests for the VulnerabilityModel: determinism, Table 5
 * calibration (min/avg/max HC_first), BER calibration (mean and CV of
 * Fig. 3), RowPress scaling (Fig. 7), aging (Fig. 10), and the
 * pattern-severity ingredients.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "dram/module_spec.h"
#include "fault/patterns.h"
#include "fault/vuln_model.h"

namespace svard::fault {
namespace {

using dram::ModuleSpec;
using dram::SubarrayMap;
using dram::kPsPerNs;
using dram::kPsPerUs;

std::shared_ptr<VulnerabilityModel>
makeModel(const std::string &label, bool aged = false)
{
    const ModuleSpec &spec = dram::moduleByLabel(label);
    auto map = std::make_shared<SubarrayMap>(spec);
    return std::make_shared<VulnerabilityModel>(spec, map, aged);
}

TEST(Patterns, Table2Fills)
{
    EXPECT_EQ(aggressorFill(DataPattern::RowStripe), 0xFF);
    EXPECT_EQ(victimFill(DataPattern::RowStripe), 0x00);
    EXPECT_EQ(aggressorFill(DataPattern::Checkerboard), 0xAA);
    EXPECT_EQ(victimFill(DataPattern::Checkerboard), 0x55);
    EXPECT_STREQ(patternName(DataPattern::ColumnStripeInv), "CSI");
    EXPECT_EQ(allDataPatterns.size(), 6u);
}

TEST(VulnModel, Deterministic)
{
    auto a = makeModel("H0");
    auto b = makeModel("H0");
    for (uint32_t r = 0; r < 256; ++r) {
        EXPECT_DOUBLE_EQ(a->hcFirst(1, r), b->hcFirst(1, r));
        EXPECT_DOUBLE_EQ(a->ber128k(1, r), b->ber128k(1, r));
    }
}

TEST(VulnModel, QuantizeHc)
{
    using VM = VulnerabilityModel;
    EXPECT_EQ(VM::quantizeHc(500.0), 1024);
    EXPECT_EQ(VM::quantizeHc(1024.0), 1024);
    EXPECT_EQ(VM::quantizeHc(1025.0), 2048);
    EXPECT_EQ(VM::quantizeHc(13000.0), 16 * 1024);
    EXPECT_EQ(VM::quantizeHc(130000.0), 128 * 1024);
    EXPECT_EQ(VM::quantizeHc(999999.0), 128 * 1024);
}

TEST(VulnModel, LogQuantizerMatchesExpPathAtBoundaries)
{
    // The log-domain decision must equal quantizeHc(clamp(exp(x))) on
    // and around every edge it compares against: each tested count
    // and both clamp bounds, at 0 and 1 ULP, inside the fallback
    // margin (1e-9) and just outside it (2e-9).
    const auto &labels = dram::testedHammerCounts();
    std::vector<std::pair<double, double>> bounds = {
        {1024.0, 128.0 * 1024.0}, // clamp bounds on tested counts
    };
    for (const ModuleSpec &spec : dram::allModules())
        bounds.emplace_back(0.98 * static_cast<double>(spec.hcFirstMin),
                            0.98 * static_cast<double>(spec.hcFirstMax));
    for (const auto &[lo, hi] : bounds) {
        const LogHcQuantizer quant(lo, hi);
        std::vector<double> edges = {std::log(lo), std::log(hi)};
        for (int64_t l : labels)
            edges.push_back(std::log(static_cast<double>(l)));
        std::vector<double> xs = {std::log(lo) - 1.0,
                                  std::log(hi) + 1.0};
        for (double e : edges)
            for (double x : {e, std::nextafter(e, -INFINITY),
                             std::nextafter(e, INFINITY), e - 1e-9,
                             e + 1e-9, e - 2e-9, e + 2e-9})
                xs.push_back(x);
        for (double x : xs)
            EXPECT_EQ(labels[quant.labelIndex(x)],
                      VulnerabilityModel::quantizeHc(
                          std::clamp(std::exp(x), lo, hi)))
                << "lo " << lo << " hi " << hi << " x " << x;
    }
}

TEST(VulnModel, WeakestRowCarriesModuleMinimum)
{
    for (const char *label : {"H0", "M0", "S0"}) {
        auto m = makeModel(label);
        for (uint32_t bank : {0u, 3u}) {
            const uint32_t weak = m->weakestRow(bank);
            // Quantized to the tested counts, the weakest row measures
            // exactly the module's Table 5 minimum.
            EXPECT_EQ(VulnerabilityModel::quantizeHc(
                          m->hcFirst(bank, weak)),
                      m->spec().hcFirstMin)
                << label;
        }
    }
}

/** Per-module calibration sweep over all 15 modules. */
class VulnModelCalibration
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(VulnModelCalibration, HcFirstWithinTable5Bounds)
{
    auto m = makeModel(GetParam());
    const auto &spec = m->spec();
    for (uint32_t r = 0; r < 4096; r += 3) {
        const double hc = m->hcFirst(0, r);
        EXPECT_GE(hc, 0.98 * spec.hcFirstMin);
        EXPECT_LE(hc, spec.hcFirstMax);
        // Quantized, every row reports within Table 5's bounds.
        const int64_t q = VulnerabilityModel::quantizeHc(hc);
        EXPECT_GE(q, spec.hcFirstMin);
        EXPECT_LE(q, spec.hcFirstMax);
    }
}

TEST_P(VulnModelCalibration, HcFirstMeanNearTable5Average)
{
    auto m = makeModel(GetParam());
    const auto &spec = m->spec();
    double sum = 0.0;
    const uint32_t n = 8192;
    for (uint32_t r = 0; r < n; ++r)
        sum += m->hcFirst(0, r * (spec.rowsPerBank / n));
    const double avg = sum / n;
    // Clipping shifts the mean; allow 12%.
    EXPECT_NEAR(avg / static_cast<double>(spec.hcFirstAvg), 1.0, 0.12)
        << GetParam();
}

TEST_P(VulnModelCalibration, BerMeanAndCvNearFig3)
{
    auto m = makeModel(GetParam());
    const auto &spec = m->spec();
    std::vector<double> bers;
    const uint32_t n = 8192;
    for (uint32_t r = 0; r < n; ++r)
        bers.push_back(m->ber128k(0, r * (spec.rowsPerBank / n)));
    EXPECT_NEAR(svard::mean(bers) / spec.berMean, 1.0, 0.08)
        << GetParam();
    const double cv = svard::coefficientOfVariation(bers) * 100.0;
    EXPECT_NEAR(cv / spec.berCvPct, 1.0, 0.35) << GetParam();
}

TEST_P(VulnModelCalibration, BerCurveAnchoredAt128K)
{
    auto m = makeModel(GetParam());
    for (uint32_t r = 100; r < 200; ++r) {
        const double hcf = m->hcFirst(0, r);
        if (hcf >= 128.0 * 1024.0)
            continue;
        EXPECT_DOUBLE_EQ(m->berAt(0, r, 128.0 * 1024.0),
                         std::min(m->ber128k(0, r), 0.5));
        EXPECT_DOUBLE_EQ(m->berAt(0, r, hcf * 0.999), 0.0);
        EXPECT_GT(m->berAt(0, r, 128.0 * 1024.0),
                  m->berAt(0, r, (hcf + 128.0 * 1024.0) / 2.0));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModules, VulnModelCalibration,
    ::testing::Values("H0", "H1", "H2", "H3", "H4", "M0", "M1", "M2",
                      "M3", "M4", "S0", "S1", "S2", "S3", "S4"));

TEST(VulnModel, ActWeightBaseIsHalfHammer)
{
    auto m = makeModel("H1");
    double sum = 0.0;
    const int n = 512;
    for (int r = 0; r < n; ++r)
        sum += m->actWeight(0, r, 36 * kPsPerNs);
    EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(VulnModel, RowPressMonotoneInOnTime)
{
    auto m = makeModel("M2");
    for (uint32_t r = 0; r < 64; ++r) {
        const double w36 = m->actWeight(0, r, 36 * kPsPerNs);
        const double w500 = m->actWeight(0, r, kPsPerUs / 2);
        const double w2000 = m->actWeight(0, r, 2 * kPsPerUs);
        EXPECT_LT(w36, w500);
        EXPECT_LT(w500, w2000);
        // Fig. 7: roughly an order of magnitude at 2us.
        EXPECT_GT(w2000 / w36, 4.0);
        EXPECT_LT(w2000 / w36, 25.0);
    }
}

TEST(VulnModel, AgingOnlyLowersWeakRows)
{
    auto fresh = makeModel("H3", false);
    auto aged = makeModel("H3", true);
    uint64_t lowered = 0, raised = 0, strong_changed = 0;
    const uint32_t n = 32768;
    for (uint32_t r = 0; r < n; ++r) {
        const double before = fresh->hcFirst(0, r);
        const double after = aged->hcFirst(0, r);
        if (after < before)
            ++lowered;
        if (after > before)
            ++raised;
        if (VulnerabilityModel::quantizeHc(before) == 128 * 1024 &&
            after != before)
            ++strong_changed;
    }
    EXPECT_GT(lowered, 0u);
    EXPECT_EQ(raised, 0u);
    EXPECT_EQ(strong_changed, 0u); // Obsv. 13: strongest rows unaffected
}

TEST(VulnModel, AgingDropsExactlyOneQuantizationStep)
{
    auto fresh = makeModel("S2", false);
    auto aged = makeModel("S2", true);
    const auto &labels = dram::testedHammerCounts();
    for (uint32_t r = 0; r < 32768; ++r) {
        const int64_t qb =
            VulnerabilityModel::quantizeHc(fresh->hcFirst(0, r));
        const int64_t qa =
            VulnerabilityModel::quantizeHc(aged->hcFirst(0, r));
        if (qa == qb)
            continue;
        // Changed rows moved down exactly one tested label.
        auto it = std::find(labels.begin(), labels.end(), qb);
        ASSERT_NE(it, labels.begin());
        EXPECT_EQ(qa, *(it - 1)) << "row " << r;
    }
}

TEST(VulnModel, CellParametersInRange)
{
    auto m = makeModel("M4");
    for (uint32_t r = 0; r < 512; ++r) {
        const double tf = m->trueCellFraction(0, r);
        EXPECT_GE(tf, 0.35);
        EXPECT_LE(tf, 0.65);
        const double sc = m->sameDataCoupling(0, r);
        EXPECT_GE(sc, 0.25);
        EXPECT_LE(sc, 0.60);
        const double pj = m->patternJitter(0, r, 0x00, 0xFF);
        EXPECT_GT(pj, 0.7);
        EXPECT_LT(pj, 1.4);
    }
}

TEST(VulnModel, SamsungFeatureBitsShiftHcFirst)
{
    // S4's subarray-address bit 0 should separate mean HC_first.
    auto m = makeModel("S4");
    const auto &map = m->subarrays();
    double sum[2] = {0, 0};
    uint64_t cnt[2] = {0, 0};
    for (uint32_t r = 0; r < m->spec().rowsPerBank; r += 7) {
        const int b = map.locate(r).subarray & 1;
        sum[b] += m->hcFirst(0, r);
        ++cnt[b];
    }
    const double mean0 = sum[0] / cnt[0];
    const double mean1 = sum[1] / cnt[1];
    EXPECT_GT(mean1 / mean0, 1.08); // strength 0.18 in ln-space
}

TEST(VulnModel, NonSamsungModulesHaveNoFeatureShift)
{
    auto m = makeModel("H1");
    const auto &map = m->subarrays();
    double sum[2] = {0, 0};
    uint64_t cnt[2] = {0, 0};
    for (uint32_t r = 0; r < m->spec().rowsPerBank; r += 7) {
        const int b = map.locate(r).subarray & 1;
        sum[b] += m->hcFirst(0, r);
        ++cnt[b];
    }
    EXPECT_NEAR((sum[1] / cnt[1]) / (sum[0] / cnt[0]), 1.0, 0.03);
}

TEST(VulnModel, M1ChunkElevatesBer)
{
    auto m = makeModel("M1");
    const uint32_t rows = m->spec().rowsPerBank;
    std::vector<double> inside, outside;
    for (uint32_t r = 0; r < rows; r += 11) {
        const double x = m->relativeLocation(r);
        if (x >= 0.03 && x < 0.12)
            inside.push_back(m->ber128k(0, r));
        else if (x >= 0.20)
            outside.push_back(m->ber128k(0, r));
    }
    EXPECT_GT(svard::mean(inside) / svard::mean(outside), 1.05);
}

} // namespace
} // namespace svard::fault
