#include "fault/vuln_model.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "dram/timing.h"

namespace svard::fault {

namespace {

// Stream tags keep the per-row hash streams independent.
constexpr uint64_t kHcTag = 0x4843;        // "HC"
constexpr uint64_t kBerTag = 0x424552;     // "BER"
constexpr uint64_t kWeakTag = 0x5745414b;  // "WEAK"
constexpr uint64_t kCellTag = 0x43454c4c;  // "CELL"
constexpr uint64_t kCoupTag = 0x434f5550;  // "COUP"
constexpr uint64_t kPressTag = 0x50524553; // "PRES"
constexpr uint64_t kPatTag = 0x504154;     // "PAT"
constexpr uint64_t kAgeTag = 0x414745;     // "AGE"

/** RowPress reference on-time: the paper's minimum tRAS of 36 ns. */
constexpr dram::Tick kPressBase = 36 * dram::kPsPerNs;

/** Hammer count of the BER calibration point (128K, K = 2^10). */
constexpr double kHc128k = 128.0 * 1024.0;

/** Uniform double in [0, 1) from the top 53 bits of a hash. */
double
uniformOf(uint64_t h)
{
    return (h >> 11) * (1.0 / 9007199254740992.0);
}

double
hashUniform(std::initializer_list<uint64_t> parts)
{
    return uniformOf(hashSeed(parts));
}

double
hashNormal(std::initializer_list<uint64_t> parts)
{
    Rng rng(hashSeed(parts));
    return rng.normal();
}

/** Index of a quantized HC_first among the tested hammer counts. */
size_t
indexOfLabel(int64_t q)
{
    const auto &labels = dram::testedHammerCounts();
    const auto it = std::find(labels.begin(), labels.end(), q);
    SVARD_ASSERT(it != labels.end(), "not a tested hammer count");
    return static_cast<size_t>(it - labels.begin());
}

} // anonymous namespace

LogHcQuantizer::LogHcQuantizer(double lo, double hi)
    : lo_(lo), hi_(hi), logLo_(std::log(lo)), logHi_(std::log(hi)),
      loIndex_(indexOfLabel(VulnerabilityModel::quantizeHc(lo))),
      hiIndex_(indexOfLabel(VulnerabilityModel::quantizeHc(hi)))
{
    SVARD_ASSERT(lo > 0.0 && lo <= hi, "clamp bounds must be 0 < lo <= hi");
    const auto &labels = dram::testedHammerCounts();
    logLabels_.reserve(labels.size());
    for (int64_t l : labels)
        logLabels_.push_back(std::log(static_cast<double>(l)));
}

size_t
LogHcQuantizer::labelIndex(double x) const
{
    if (x < logLo_ - kMargin)
        return loIndex_;
    if (x > logHi_ + kMargin)
        return hiIndex_;
    // i = the first label whose log is >= x; exp(x) then lies in
    // (labels[i-1], labels[i]] unless x is near one of the edges.
    size_t i = 0;
    while (i < logLabels_.size() && logLabels_[i] < x)
        ++i;
    const bool clear =
        x - logLo_ > kMargin && logHi_ - x > kMargin &&
        (i == logLabels_.size() || logLabels_[i] - x > kMargin) &&
        (i == 0 || x - logLabels_[i - 1] > kMargin);
    if (clear)
        return std::min(i, logLabels_.size() - 1);
    return indexOfLabel(VulnerabilityModel::quantizeHc(
        std::clamp(std::exp(x), lo_, hi_)));
}

double
agingDropProbability(int64_t quantized_hc)
{
    switch (quantized_hc) {
      case 12 * 1024: return 0.004;
      case 16 * 1024: return 0.001;
      case 24 * 1024: return 0.040;
      case 32 * 1024: return 0.077;
      case 40 * 1024: return 0.091;
      case 48 * 1024: return 0.005;
      case 56 * 1024: return 0.013;
      case 64 * 1024: return 0.020;
      case 96 * 1024: return 0.005;
      case 128 * 1024: return 0.0;   // strongest rows do not degrade
      default: return quantized_hc < 12 * 1024 ? 0.010 : 0.0;
    }
}

double
agingDropFactor(double hc_first)
{
    const int64_t q = VulnerabilityModel::quantizeHc(hc_first);
    const auto &labels = dram::testedHammerCounts();
    int64_t prev = labels.front();
    for (int64_t l : labels) {
        if (l >= q)
            break;
        prev = l;
    }
    return 0.99 * static_cast<double>(prev) / hc_first;
}

VulnerabilityModel::VulnerabilityModel(
    const dram::ModuleSpec &spec,
    std::shared_ptr<const dram::SubarrayMap> subarrays,
    bool aged)
    : spec_(spec), subarrays_(std::move(subarrays)), aged_(aged),
      hcLo_(0.98 * static_cast<double>(spec.hcFirstMin)),
      hcHi_(0.98 * static_cast<double>(spec.hcFirstMax))
{
    SVARD_ASSERT(subarrays_ != nullptr, "model needs a subarray map");

    hcSigma_ = spec_.hcSigma();
    if (spec_.hcBimodalHighCenter > 0.0) {
        // Bimodal mode with a pinned strong-population center: the
        // primary effect's +s/2 shift must land exactly on the pinned
        // center; the weak population (mu - s/2) clips at the module
        // minimum. Secondary effects keep their mean-preserving cosh
        // correction.
        SVARD_ASSERT(!spec_.featureEffects.empty(),
                     "bimodal center needs a primary feature effect");
        hcMu_ = std::log(spec_.hcBimodalHighCenter) -
                0.5 * spec_.featureEffects.front().strength -
                0.5 * hcSigma_ * hcSigma_;
        for (size_t i = 1; i < spec_.featureEffects.size(); ++i)
            hcMu_ -= std::log(
                std::cosh(0.5 * spec_.featureEffects[i].strength));
    } else {
        hcMu_ = std::log(static_cast<double>(spec_.hcFirstAvg)) -
                0.5 * hcSigma_ * hcSigma_;
        // Each +-s/2 feature shift multiplies the mean by cosh(s/2);
        // compensate so the module average stays at Table 5's value.
        for (const auto &fe : spec_.featureEffects)
            hcMu_ -= std::log(std::cosh(0.5 * fe.strength));
    }

    // Split the module's published BER coefficient of variation between
    // the structured spatial components (periodic + chunk, Fig. 4) and
    // unstructured row noise, scaling the structure down when the spec
    // parameters would exceed the CV budget.
    const double cv = spec_.berCvPct / 100.0;
    const double chunk_f = spec_.chunkHi - spec_.chunkLo;
    berAmp_ = spec_.berSpatialAmp;
    berChunkAmp_ = spec_.chunkAmp;
    auto structured_var = [&]() {
        return 0.5 * berAmp_ * berAmp_ +
               chunk_f * (1.0 - chunk_f) * berChunkAmp_ * berChunkAmp_;
    };
    const double budget = 0.7 * cv * cv;
    if (structured_var() > budget && structured_var() > 0.0) {
        const double scale = std::sqrt(budget / structured_var());
        berAmp_ *= scale;
        berChunkAmp_ *= scale;
    }
    berNoiseSigma_ = std::sqrt(std::max(cv * cv - structured_var(), 1e-8));
    berNormalizer_ = (1.0 + berAmp_) * (1.0 + chunk_f * berChunkAmp_) *
                     std::exp(0.5 * berNoiseSigma_ * berNoiseSigma_);
}

uint32_t
VulnerabilityModel::weakestRow(uint32_t bank) const
{
    return static_cast<uint32_t>(
        hashSeed({spec_.seed, kWeakTag, bank}) % spec_.rowsPerBank);
}

double
VulnerabilityModel::relativeLocation(uint32_t phys_row) const
{
    return static_cast<double>(phys_row) /
           static_cast<double>(spec_.rowsPerBank);
}

double
VulnerabilityModel::featureShift(uint32_t bank, uint32_t phys_row) const
{
    if (spec_.featureEffects.empty())
        return 0.0;
    const dram::SubarrayLocation loc = subarrays_->locate(phys_row);
    double shift = 0.0;
    for (const auto &fe : spec_.featureEffects) {
        uint32_t value = 0;
        switch (fe.kind) {
          case dram::FeatureEffect::Kind::BankAddr:
            value = bank;
            break;
          case dram::FeatureEffect::Kind::RowAddr:
            value = phys_row;
            break;
          case dram::FeatureEffect::Kind::SubarrayAddr:
            value = loc.subarray;
            break;
          case dram::FeatureEffect::Kind::Distance:
            value = loc.distanceToSenseAmps();
            break;
        }
        const bool set = (value >> fe.bit) & 1;
        shift += (set ? 0.5 : -0.5) * fe.strength;
    }
    return shift;
}

double
VulnerabilityModel::hcLog(uint32_t bank, uint32_t phys_row,
                          uint64_t hc_seed) const
{
    const double z = Rng(hc_seed).normal();
    const double mu = hcMu_ + featureShift(bank, phys_row);
    return mu + hcSigma_ * z;
}

double
VulnerabilityModel::hcFirstUnaged(uint32_t bank, uint32_t phys_row) const
{
    if (phys_row == weakestRow(bank))
        return hcLo_;
    const double x = hcLog(bank, phys_row,
                           hashSeed({spec_.seed, kHcTag, bank, phys_row}));
    return std::clamp(std::exp(x), hcLo_, hcHi_);
}

void
VulnerabilityModel::quantizeBank(uint32_t bank,
                                 const std::vector<uint8_t> &code,
                                 uint8_t *out) const
{
    const auto &labels = dram::testedHammerCounts();
    SVARD_ASSERT(code.size() == labels.size(),
                 "one code per tested hammer count");
    std::vector<double> drop_p(labels.size(), 0.0);
    if (aged_)
        for (size_t i = 0; i < labels.size(); ++i)
            drop_p[i] = agingDropProbability(labels[i]);
    const LogHcQuantizer quant(hcLo_, hcHi_);
    const uint64_t hc_prefix = hashSeed({spec_.seed, kHcTag, bank});
    const uint64_t age_prefix = hashSeed({spec_.seed, kAgeTag, bank});
    const uint32_t weakest = weakestRow(bank);
    for (uint32_t r = 0; r < spec_.rowsPerBank; ++r) {
        size_t idx = 0;
        if (r == weakest) {
            idx = indexOfLabel(quantizeHc(hcFirst(bank, r)));
        } else {
            idx = quant.labelIndex(
                hcLog(bank, r, hashStep(hc_prefix, r)));
            // agingFactor's draw: a row whose drop does not fire keeps
            // hc * 1.0, i.e. its unaged bin.
            if (drop_p[idx] > 0.0 &&
                uniformOf(hashStep(age_prefix, r)) < drop_p[idx])
                idx = indexOfLabel(quantizeHc(hcFirst(bank, r)));
        }
        out[r] = code[idx];
    }
}

double
VulnerabilityModel::agingFactor(uint32_t bank, uint32_t phys_row,
                                double hc_unaged) const
{
    const int64_t q = quantizeHc(hc_unaged);
    const double p = agingDropProbability(q);
    if (p <= 0.0)
        return 1.0;
    const double u = hashUniform({spec_.seed, kAgeTag, bank, phys_row});
    if (u >= p)
        return 1.0;
    // Drop the row to just under the previous tested hammer count so
    // its quantized HC_first moves down exactly one step.
    return agingDropFactor(hc_unaged);
}

double
VulnerabilityModel::hcFirst(uint32_t bank, uint32_t phys_row) const
{
    const double hc = hcFirstUnaged(bank, phys_row);
    if (!aged_)
        return hc;
    return hc * agingFactor(bank, phys_row, hc);
}

double
VulnerabilityModel::spatialBerFactor(uint32_t phys_row) const
{
    const double x = relativeLocation(phys_row);
    // Periodic design-induced component with minima at multiples of
    // 1/periods (Obsv. 4).
    double f = 1.0 + berAmp_ *
               (1.0 - std::cos(2.0 * M_PI * spec_.berSpatialPeriods * x));
    if (berChunkAmp_ > 0.0 && x >= spec_.chunkLo && x < spec_.chunkHi)
        f *= 1.0 + berChunkAmp_;
    return f;
}

double
VulnerabilityModel::ber128k(uint32_t bank, uint32_t phys_row) const
{
    const double z = hashNormal({spec_.seed, kBerTag, bank, phys_row});
    return spec_.berMean * spatialBerFactor(phys_row) / berNormalizer_ *
           std::exp(berNoiseSigma_ * z);
}

double
VulnerabilityModel::berAt(uint32_t bank, uint32_t phys_row,
                          double eff_hammers) const
{
    const double hcf = hcFirst(bank, phys_row);
    if (eff_hammers < hcf)
        return 0.0;
    const double denom = std::max(kHc128k - hcf, 1.0);
    const double t = (eff_hammers - hcf) / denom;
    const double ber = ber128k(bank, phys_row) * std::pow(t, 1.7);
    return std::min(ber, 0.5);
}

double
VulnerabilityModel::actWeight(uint32_t bank, uint32_t phys_row,
                              dram::Tick t_agg_on) const
{
    const double z = hashNormal({spec_.seed, kPressTag, bank, phys_row});
    const double exponent =
        std::clamp(spec_.pressExponent * (1.0 + 0.08 * z), 0.30, 0.80);
    const double ratio =
        static_cast<double>(std::max(t_agg_on, kPressBase)) /
        static_cast<double>(kPressBase);
    return 0.5 * std::pow(ratio, exponent);
}

double
VulnerabilityModel::trueCellFraction(uint32_t bank,
                                     uint32_t phys_row) const
{
    return 0.35 +
           0.30 * hashUniform({spec_.seed, kCellTag, bank, phys_row});
}

double
VulnerabilityModel::sameDataCoupling(uint32_t bank,
                                     uint32_t phys_row) const
{
    return 0.25 +
           0.35 * hashUniform({spec_.seed, kCoupTag, bank, phys_row});
}

double
VulnerabilityModel::patternJitter(uint32_t bank, uint32_t phys_row,
                                  uint8_t victim_fill,
                                  uint8_t aggr_fill) const
{
    const double z = hashNormal({spec_.seed, kPatTag, bank, phys_row,
                                 victim_fill, aggr_fill});
    return std::exp(0.05 * z);
}

int64_t
VulnerabilityModel::quantizeHc(double hc_first)
{
    const auto &labels = dram::testedHammerCounts();
    for (int64_t l : labels)
        if (static_cast<double>(l) >= hc_first)
            return l;
    // Rows that never flip in the tested range are reported at the
    // largest tested hammer count (Fig. 5 / Table 5 convention).
    return labels.back();
}

} // namespace svard::fault
