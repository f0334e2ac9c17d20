#include "mem/quantile_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace kyoto::mem {

QuantileIndex::QuantileIndex(std::vector<double> cdf) : cdf_(std::move(cdf)) {
  KYOTO_CHECK_MSG(!cdf_.empty(), "quantile index needs a non-empty cdf");
  KYOTO_CHECK_MSG(cdf_.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "quantile index cdf too long");
  last_ = static_cast<std::uint32_t>(cdf_.size() - 1);
  index_.resize(kQuantiles + 1);
  std::uint32_t k = 0;
  std::uint32_t widest = 0;
  for (std::size_t j = 0; j <= kQuantiles; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(kQuantiles);
    while (k < last_ && cdf_[k] < edge) ++k;
    index_[j] = k;
    if (j > 0) widest = std::max(widest, k - index_[j - 1]);
  }
  windowed_ = widest <= kWindow;
  cdf_.reserve(cdf_.size() + kWindow - 1);  // exact: resize alone may double the capacity
  cdf_.resize(cdf_.size() + kWindow - 1, std::numeric_limits<double>::infinity());
}

namespace {

enum class TableFamily { kZipf, kGeometric };
using TableKey = std::tuple<TableFamily, std::uint64_t, std::uint64_t>;

/// The process-wide memo behind the shared_*_table functions
/// (thread-safe): `build_cdf` runs once per key.
std::shared_ptr<const QuantileIndex> memoized_table(
    const TableKey& key, const std::function<std::vector<double>()>& build_cdf) {
  static std::mutex mutex;
  static std::map<TableKey, std::shared_ptr<const QuantileIndex>> memo;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = memo[key];
  if (slot == nullptr) slot = std::make_shared<const QuantileIndex>(build_cdf());
  return slot;
}

}  // namespace

std::shared_ptr<const QuantileIndex> shared_zipf_table(std::uint64_t lines, double exponent) {
  KYOTO_CHECK_MSG(lines > 0, "zipf table needs at least one line");
  KYOTO_CHECK_MSG(exponent >= 0.0, "zipf exponent must be non-negative");
  return memoized_table({TableFamily::kZipf, lines, std::bit_cast<std::uint64_t>(exponent)},
                        [&] {
                          std::vector<double> cdf(lines);
                          double total = 0.0;
                          for (std::uint64_t r = 0; r < lines; ++r) {
                            total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
                            cdf[r] = total;
                          }
                          for (auto& c : cdf) c /= total;
                          return cdf;
                        });
}

std::shared_ptr<const QuantileIndex> shared_geometric_table(double p) {
  KYOTO_CHECK_MSG(p > 0.0 && p < 1.0, "geometric table needs p in (0, 1)");
  return memoized_table({TableFamily::kGeometric, std::bit_cast<std::uint64_t>(p), 0}, [p] {
    const double q = 1.0 - p;
    std::vector<double> cdf;  // cdf[k] = P(gap <= k)
    double f = 0.0;   // F(k-1)
    double qk = 1.0;  // q^k
    while (f < 1.0) {
      qk *= q;
      const double next = 1.0 - qk;  // F(k)
      cdf.push_back(next <= f ? 1.0 : next);  // force progress at saturation
      if (cdf.back() >= 1.0) cdf.back() = 1.0;
      f = cdf.back();
      if (cdf.size() > 1u << 20) {  // paranoia bound; unreachable for real p
        cdf.back() = 1.0;
        break;
      }
    }
    return cdf;
  });
}

}  // namespace kyoto::mem
