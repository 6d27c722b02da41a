#include "core/vuln_profile.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace svard::core {

VulnProfile::VulnProfile(std::string label, uint32_t banks,
                         uint32_t rows_per_bank,
                         std::vector<double> bin_bounds)
    : label_(std::move(label)), banks_(banks), rowsPerBank_(rows_per_bank),
      binBounds_(std::move(bin_bounds))
{
    SVARD_ASSERT(!binBounds_.empty() && binBounds_.size() <= 16,
                 "profile needs 1..16 bins");
    SVARD_ASSERT(std::is_sorted(binBounds_.begin(), binBounds_.end()),
                 "bin bounds must ascend");
    bins_.assign(banks_, std::vector<uint8_t>(rowsPerBank_, 0));
}

VulnProfile
VulnProfile::fromModel(const fault::VulnerabilityModel &model,
                       uint32_t num_bins)
{
    SVARD_ASSERT(num_bins >= 1 && num_bins <= 16, "1..16 bins");
    const auto &spec = model.spec();
    const auto &labels = dram::testedHammerCounts();

    // Natural bins: one per tested hammer count; the safe bound of the
    // bin holding rows measured at labels[i] is labels[i-1] (no flips
    // were observed there). The weakest bin's bound backs off to 3/4
    // of its label.
    std::vector<double> bounds;
    bounds.reserve(labels.size());
    for (size_t i = 0; i < labels.size(); ++i)
        bounds.push_back(i == 0
                             ? 0.75 * static_cast<double>(labels[0])
                             : static_cast<double>(labels[i - 1]));

    // Merge from the weak end to fit num_bins: bins [0 .. merge] share
    // the weakest (safest) bound. Merging weak bins is conservative;
    // merging strong bins would forfeit Svärd's benefit where it is
    // largest.
    std::vector<uint8_t> bin_of_label(labels.size());
    std::vector<double> merged;
    if (num_bins >= labels.size()) {
        merged = bounds;
        for (size_t i = 0; i < labels.size(); ++i)
            bin_of_label[i] = static_cast<uint8_t>(i);
    } else {
        const size_t excess = labels.size() - num_bins;
        merged.push_back(bounds[0]);
        bin_of_label[0] = 0;
        for (size_t i = 1; i < labels.size(); ++i) {
            if (i <= excess) {
                bin_of_label[i] = 0; // merged into the weakest bin
            } else {
                bin_of_label[i] = static_cast<uint8_t>(merged.size());
                merged.push_back(bounds[i]);
            }
        }
    }

    VulnProfile prof(spec.label, spec.banks, spec.rowsPerBank,
                     std::move(merged));
    for (uint32_t b = 0; b < spec.banks; ++b)
        model.quantizeBank(b, bin_of_label, prof.bins_[b].data());
    prof.occupancyDirty_ = true;
    return prof;
}

void
VulnProfile::setBin(uint32_t bank, uint32_t row, uint8_t bin)
{
    SVARD_ASSERT(bank < banks_ && row < rowsPerBank_, "row out of range");
    SVARD_ASSERT(bin < binBounds_.size(), "bin out of range");
    bins_[bank][row] = bin;
    occupancyDirty_ = true;
}

void
VulnProfile::fillBins(uint32_t bank, uint32_t row_begin, uint32_t row_end,
                      uint8_t bin)
{
    SVARD_ASSERT(bank < banks_ && row_begin <= row_end &&
                     row_end <= rowsPerBank_,
                 "row range out of range");
    SVARD_ASSERT(bin < binBounds_.size(), "bin out of range");
    std::fill(bins_[bank].begin() + row_begin,
              bins_[bank].begin() + row_end, bin);
    occupancyDirty_ = true;
}

void
VulnProfile::refreshOccupancy() const
{
    uint8_t lo = static_cast<uint8_t>(binBounds_.size() - 1);
    uint8_t hi = 0;
    for (const auto &bank : bins_) {
        for (uint8_t b : bank) {
            if (b < lo)
                lo = b;
            if (b > hi)
                hi = b;
        }
    }
    minOccupied_ = lo;
    maxOccupied_ = hi;
    occupancyDirty_ = false;
}

uint8_t
VulnProfile::binOf(uint32_t bank, uint32_t row) const
{
    SVARD_ASSERT(bank < banks_ && row < rowsPerBank_, "row out of range");
    return bins_[bank][row];
}

double
VulnProfile::thresholdOf(uint32_t bank, uint32_t row) const
{
    return binBounds_[binOf(bank, row)];
}

double
VulnProfile::minThreshold() const
{
    if (occupancyDirty_)
        refreshOccupancy();
    return binBounds_[minOccupied_];
}

double
VulnProfile::maxThreshold() const
{
    if (occupancyDirty_)
        refreshOccupancy();
    return binBounds_[maxOccupied_];
}

VulnProfile
VulnProfile::scaledTo(double target_min_hc_first) const
{
    SVARD_ASSERT(target_min_hc_first > 0.0, "target must be positive");
    const double factor = target_min_hc_first / minThreshold();
    std::vector<double> bounds = binBounds_;
    for (double &b : bounds)
        b *= factor;
    VulnProfile out(label_, banks_, rowsPerBank_, std::move(bounds));
    out.bins_ = bins_;
    out.occupancyDirty_ = true;
    return out;
}

VulnProfile
VulnProfile::resampledTo(uint32_t banks, uint32_t rows_per_bank) const
{
    VulnProfile out(label_, banks, rows_per_bank, binBounds_);
    for (uint32_t b = 0; b < banks; ++b) {
        const uint32_t src_bank = b % banks_;
        for (uint32_t r = 0; r < rows_per_bank; ++r) {
            const uint32_t src_row = static_cast<uint32_t>(
                (static_cast<uint64_t>(r) * rowsPerBank_) /
                rows_per_bank);
            out.setBin(b, r, binOf(src_bank, src_row));
        }
    }
    return out;
}

std::vector<double>
VulnProfile::binOccupancy() const
{
    std::vector<uint64_t> counts(binBounds_.size(), 0);
    for (const auto &bank : bins_)
        for (uint8_t b : bank)
            ++counts[b];
    const double total = static_cast<double>(banks_) *
                         static_cast<double>(rowsPerBank_);
    std::vector<double> out(counts.size());
    for (size_t i = 0; i < counts.size(); ++i)
        out[i] = static_cast<double>(counts[i]) / total;
    return out;
}

uint64_t
VulnProfile::metadataBits() const
{
    uint32_t bits = 1;
    while ((1u << bits) < binBounds_.size())
        ++bits;
    return static_cast<uint64_t>(bits) * banks_ * rowsPerBank_;
}

} // namespace svard::core
